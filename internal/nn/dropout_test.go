package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"faction/internal/mat"
)

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout(rand.New(rand.NewSource(1)), 0.5)
	x := mat.FromRows([][]float64{{1, 2, 3}})
	out := d.Infer(x, nil)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
	// Backward after identity forward passes gradients through.
	g := mat.FromRows([][]float64{{1, 1, 1}})
	back := d.Backward(g)
	for i := range g.Data {
		if back.Data[i] != g.Data[i] {
			t.Fatal("identity backward")
		}
	}
}

func TestDropoutTrainMasksAndScales(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDropout(rng, 0.5)
	x := mat.NewDense(1, 10000)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1−0.5)
			twos++
		default:
			t.Fatalf("unexpected activation %g", v)
		}
	}
	frac := float64(zeros) / float64(len(out.Data))
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("dropped fraction %g, want ≈0.5", frac)
	}
	if zeros+twos != len(out.Data) {
		t.Fatal("mask accounting")
	}
	// Expected value preserved (inverted dropout).
	mean := mat.MeanVec(out.Data)
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean activation %g, want ≈1", mean)
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDropout(rng, 0.3)
	x := mat.NewDense(2, 8)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x)
	g := mat.NewDense(2, 8)
	for i := range g.Data {
		g.Data[i] = 1
	}
	back := d.Backward(g)
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("gradient mask must match forward mask")
		}
	}
}

func TestDropoutRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(rand.New(rand.NewSource(4)), 1.0)
}

func TestDropoutClassifierTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y, _ := separableData(rng, 300, 0.5)
	c := NewClassifier(Config{
		InputDim: 2, NumClasses: 2, Hidden: []int{32},
		DropoutRate: 0.2, Seed: 6,
	})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 40, BatchSize: 32}, rng)
	if acc := Accuracy(c.Logits(x), y); acc < 0.93 {
		t.Fatalf("dropout classifier accuracy %.3f", acc)
	}
	// Eval-mode predictions are deterministic.
	a := c.Logits(x)
	b := c.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("eval-mode forward must be deterministic")
		}
	}
}

func TestProbsMCRequiresDropout(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{4}, Seed: 7})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without dropout")
		}
	}()
	c.ProbsMC(mat.NewDense(1, 2), 5)
}

func TestProbsMCBALDSeparatesCertainFromUncertain(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y, _ := separableData(rng, 400, 0.5)
	c := NewClassifier(Config{
		InputDim: 2, NumClasses: 2, Hidden: []int{32},
		DropoutRate: 0.3, Seed: 9,
	})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 40, BatchSize: 32}, rng)
	// Probe: deep inside class 1 (certain) vs on the boundary (uncertain).
	probe := mat.FromRows([][]float64{{4, 0}, {0, 0}})
	probs, bald := c.ProbsMC(probe, 40)
	if probs.Rows != 2 || len(bald) != 2 {
		t.Fatal("shape")
	}
	for i := 0; i < probs.Rows; i++ {
		if math.Abs(mat.SumVec(probs.Row(i))-1) > 1e-9 {
			t.Fatalf("MC probs row %d sums to %g", i, mat.SumVec(probs.Row(i)))
		}
	}
	for _, v := range bald {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("BALD must be nonnegative, got %v", bald)
		}
	}
	if bald[1] <= bald[0] {
		t.Fatalf("boundary BALD %g should exceed confident-region BALD %g", bald[1], bald[0])
	}
}

func TestDropoutForceActiveRestored(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y, _ := separableData(rng, 100, 0.5)
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{8}, DropoutRate: 0.4, Seed: 11})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 5, BatchSize: 32}, rng)
	c.ProbsMC(x, 3)
	// After MC inference, eval forward must be deterministic again.
	a := c.Logits(x)
	b := c.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("ForceActive leaked out of ProbsMC")
		}
	}
}

// probsMCHeap is ProbsMC with every Monte-Carlo pass on the heap: the
// reference for the bits of its arena passes.
func probsMCHeap(c *Classifier, x *mat.Dense, samples int) (*mat.Dense, []float64) {
	drops := c.dropoutLayers()
	for _, d := range drops {
		d.ForceActive = true
	}
	defer func() {
		for _, d := range drops {
			d.ForceActive = false
		}
	}()
	n := x.Rows
	mean := mat.NewDense(n, c.cfg.NumClasses)
	meanEntropy := make([]float64, n)
	probs := make([]float64, c.cfg.NumClasses)
	for s := 0; s < samples; s++ {
		logits, _ := c.net.Infer(x, nil)
		for i := 0; i < n; i++ {
			mat.Softmax(probs, logits.Row(i))
			row := mean.Row(i)
			h := 0.0
			for j, p := range probs {
				row[j] += p
				if p > 0 {
					h -= p * math.Log(p)
				}
			}
			meanEntropy[i] += h
		}
	}
	inv := 1 / float64(samples)
	bald := make([]float64, n)
	for i := 0; i < n; i++ {
		row := mean.Row(i)
		hMean := 0.0
		for j := range row {
			row[j] *= inv
			if row[j] > 0 {
				hMean -= row[j] * math.Log(row[j])
			}
		}
		bald[i] = hMean - meanEntropy[i]*inv
		if bald[i] < 0 {
			bald[i] = 0
		}
	}
	return mean, bald
}

// mcFixture builds a spectrally normalised classifier over 16 inputs with
// dropout 0.1 after each hidden layer, and n standard-normal rows.
func mcFixture(hidden []int, n int) (*Classifier, *mat.Dense) {
	c := NewClassifier(Config{InputDim: 16, NumClasses: 2, Hidden: hidden,
		SpectralNorm: true, SpectralCoeff: 3, DropoutRate: 0.1, Seed: 12})
	rng := rand.New(rand.NewSource(13))
	x := mat.NewDense(n, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return c, x
}

// Property: ProbsMC, whose passes run in an arena, gives every bit that
// heap passes give on an identically seeded classifier — with one dropout
// layer and with two, whose masks a pass draws in layer order — over
// calls in a row, as the dropout streams advance.
func TestProbsMCArenaMatchesHeap(t *testing.T) {
	for _, hidden := range [][]int{{64}, {64, 32}} {
		c, x := mcFixture(hidden, 300)
		ref, _ := mcFixture(hidden, 300)
		for call := 0; call < 2; call++ {
			probs, bald := c.ProbsMC(x, 5)
			wantProbs, wantBald := probsMCHeap(ref, x, 5)
			for i, v := range wantProbs.Data {
				if math.Float64bits(probs.Data[i]) != math.Float64bits(v) {
					t.Fatalf("hidden %v call %d: mean prob %d = %v, heap passes give %v", hidden, call, i, probs.Data[i], v)
				}
			}
			for i, v := range wantBald {
				if math.Float64bits(bald[i]) != math.Float64bits(v) {
					t.Fatalf("hidden %v call %d: BALD %d = %v, heap passes give %v", hidden, call, i, bald[i], v)
				}
			}
		}
	}
}

// TestProbsMCHeapIsItsResult bounds what a warmed ProbsMC keeps on the heap
// at a BALD pool pass's shape (16 → 512 → 2, dropout 0.1, 10 samples): its
// mean probabilities, BALD scores and per-row entropy sums plus a constant,
// where heap passes allocate two 1,000 × 512 activations per sample (82 MB
// in all). The passes run in the classifier's own arena, so two collections
// between the warm-up and the measurement change nothing.
func TestProbsMCHeapIsItsResult(t *testing.T) {
	c, x := mcFixture([]int{DefaultHidden}, 1000)
	c.ProbsMC(x, 10)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.ProbsMC(x, 10)
	runtime.ReadMemStats(&after)
	const constant = 16 << 10
	result := uint64(8 * x.Rows * (c.cfg.NumClasses + 2))
	if got := after.TotalAlloc - before.TotalAlloc; got > result+constant {
		t.Fatalf("ProbsMC over %d rows allocated %d bytes, want at most %d for its results plus %d", x.Rows, got, result, constant)
	}
}
