package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"faction/internal/mat"
)

// trainStepFixture builds the paper's tabular MLP (hidden width 512,
// spectral norm) plus a fixed-shape minibatch, mirroring the per-task
// training loop of online.Run.
func trainStepFixture(batch int) (c *Classifier, x *mat.Dense, y, s []int, opt Optimizer) {
	const inputDim = 64
	c = NewClassifier(Config{
		InputDim:     inputDim,
		NumClasses:   2,
		Hidden:       []int{DefaultHidden},
		SpectralNorm: true,
		Seed:         1,
	})
	rng := rand.New(rand.NewSource(2))
	x = mat.NewDense(batch, inputDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y = make([]int, batch)
	s = make([]int, batch)
	for i := range y {
		y[i] = rng.Intn(2)
		s[i] = 2*rng.Intn(2) - 1
	}
	return c, x, y, s, NewSGD(0.05, 0.9, 0)
}

// BenchmarkLinearTrainStep measures one fairness-regularized minibatch step
// of the hidden-512 MLP at a fixed batch shape. The acceptance target is
// 0 allocs/op in steady state: every layer and loss buffer is reused after
// the first (warm-up) step.
func BenchmarkLinearTrainStep(b *testing.B) {
	c, x, y, s, opt := trainStepFixture(64)
	fair := FairConfig{Mu: 0.1, Eps: 0.01}
	c.TrainStep(x, y, s, opt, fair, 1.0) // warm scratch and optimizer state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TrainStep(x, y, s, opt, fair, 1.0)
	}
}

// paperFixture builds protocol-paper's network exactly (online.DefaultConfig
// at the paper scale: 16 inputs, hidden 512, spectral norm with c = 3, two
// classes) and one random n-row batch with labels and 0/1 sensitive values.
func paperFixture(n int) (c *Classifier, x *mat.Dense, y, s []int) {
	const inputDim = 16
	c = NewClassifier(Config{
		InputDim:      inputDim,
		NumClasses:    2,
		Hidden:        []int{DefaultHidden},
		SpectralNorm:  true,
		SpectralCoeff: 3,
		Seed:          1,
	})
	rng := rand.New(rand.NewSource(2))
	x = mat.NewDense(n, inputDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y, s = make([]int, n), make([]int, n)
	for i := range y {
		y[i] = rng.Intn(2)
		s[i] = rng.Intn(2)
	}
	return c, x, y, s
}

// paperFair is FACTION's default fairness regularizer (μ = 0.7, ε = 0.01).
var paperFair = FairConfig{Mu: 0.7, Eps: 0.01}

// BenchmarkTrainStepPaper measures the training step exactly as
// protocol-paper runs it between acquisition rounds: batch 32, Adam at
// lr 0.01, μ = 0.7, ε = 0.01, gradient norm clipped at 5.
func BenchmarkTrainStepPaper(b *testing.B) {
	c, x, y, s := paperFixture(32)
	opt := NewAdam(0.01)
	c.TrainStep(x, y, s, opt, paperFair, 5) // warm scratch and optimizer state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TrainStep(x, y, s, opt, paperFair, 5)
	}
}

// BenchmarkPoolPassPaper measures the pool pass of the baselines' select
// rounds at protocol-paper's shape, as active.Context runs it:
// ProbsAndFeatures over a 2,200 × 16 pool through hidden 512, which runs in
// tiles and keeps the 2,200 × 2 probabilities and the 2,200 × 512 features
// on the heap. FACTION's round, which scores each tile instead of keeping
// its features, is faction.BenchmarkScoresPaper.
func BenchmarkPoolPassPaper(b *testing.B) {
	benchmarkPaperPass(b, func(c *Classifier, x *mat.Dense) { c.ProbsAndFeatures(x) })
}

// BenchmarkLogitsPaper measures online.Run's per-task eval pass at the
// same shape: Logits, which keeps only the 2,200 × 2 logits on the heap.
func BenchmarkLogitsPaper(b *testing.B) {
	benchmarkPaperPass(b, func(c *Classifier, x *mat.Dense) { c.Logits(x) })
}

// benchmarkPaperPass times pass over a paper-scale pool (2,200 × 16) on the
// paper network one training step in, after an untimed pass that grows the
// classifier's arena.
func benchmarkPaperPass(b *testing.B, pass func(*Classifier, *mat.Dense)) {
	c, x, y, s := paperFixture(2200)
	c.TrainStep(mat.NewDenseData(32, x.Cols, x.Data[:32*x.Cols]), y[:32], s[:32], NewAdam(0.01), paperFair, 5)
	pass(c, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(c, x)
	}
}

// TestLogitsHeapIsItsResult pins what a whole-set Logits keeps on the heap:
// at protocol-paper's eval shape (2,200 × 16 → 512 → 2) a warmed call
// allocates at most its 2,200 × 2 result plus a constant, where one untiled
// pass allocates two 2,200 × 512 activations (18 MB). The constant covers
// the result's rounding up to whole 8 KiB pages and a few small headers.
// The tiles live in the classifier's own arena, so two collections between
// the warm-up and the measurement change nothing.
func TestLogitsHeapIsItsResult(t *testing.T) {
	c, x, _, _ := paperFixture(2200)
	c.Logits(x)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := c.Logits(x)
	runtime.ReadMemStats(&after)
	const constant = 12 << 10
	result := uint64(8 * len(out.Data))
	if got := after.TotalAlloc - before.TotalAlloc; got > result+constant {
		t.Fatalf("Logits over %d rows allocated %d bytes, want at most its %d-byte result plus %d", x.Rows, got, result, constant)
	}
}

// TestTrainStepSteadyStateAllocs pins the acceptance criterion so a
// regression fails `go test`, not just a benchmark eyeball: after warm-up, a
// fixed-shape TrainStep performs zero heap allocations (measured with the
// kernel forced serial; the parallel path's shard handoff is also
// allocation-free but AllocsPerRun would count the pool's one-time growth).
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)

	c, x, y, s, opt := trainStepFixture(32)
	fair := FairConfig{Mu: 0.1, Eps: 0.01}
	c.TrainStep(x, y, s, opt, fair, 1.0)
	allocs := testing.AllocsPerRun(20, func() {
		c.TrainStep(x, y, s, opt, fair, 1.0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state TrainStep allocates %.1f times per step, want 0", allocs)
	}
}

// The last batch of an epoch is short whenever the batch size does not
// divide n, as in every protocol-paper round. Train views it in its batch
// buffer and the layers and loss reslice their scratch to it, so a warm
// Train call allocates the same whatever its epoch count.
func TestTrainRaggedAllocsIndependentOfEpochs(t *testing.T) {
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)

	c, x, y, s := paperFixture(150) // 4 batches of 32, then 22 rows
	opt := NewAdam(0.01)
	rng := rand.New(rand.NewSource(3))
	train := func(epochs int) func() {
		return func() {
			c.Train(x, y, s, opt, TrainOpts{Epochs: epochs, BatchSize: 32, Fair: paperFair, MaxGradNorm: 5}, rng)
		}
	}
	train(1)() // warm the layer, loss and optimizer state
	one := testing.AllocsPerRun(3, train(1))
	six := testing.AllocsPerRun(3, train(6))
	if six != one {
		t.Fatalf("Train allocates %.0f times at 1 epoch and %.0f at 6; the ragged batch must reuse its buffers", one, six)
	}
}

// TestTrainStepMatchesTrain asserts the refactored Train (which now delegates
// to TrainStep) still learns: a few steps reduce the loss on a separable
// batch.
func TestTrainStepLossDecreases(t *testing.T) {
	c, x, y, s, opt := trainStepFixture(32)
	// Make the labels linearly separable from feature 0.
	for i := 0; i < x.Rows; i++ {
		if x.At(i, 0) > 0 {
			y[i] = 1
		} else {
			y[i] = 0
		}
	}
	fair := FairConfig{}
	first := c.TrainStep(x, y, s, opt, fair, 0)
	var last FairLossResult
	for i := 0; i < 60; i++ {
		last = c.TrainStep(x, y, s, opt, fair, 0)
	}
	if last.Total >= first.Total {
		t.Fatalf("loss did not decrease: first %.4f, last %.4f", first.Total, last.Total)
	}
}
