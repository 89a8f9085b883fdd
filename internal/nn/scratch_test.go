package nn

import (
	"math/rand"
	"sync"
	"testing"

	"faction/internal/mat"
	"faction/internal/testutil"
)

// scratchFixture builds a trained-ish spectral-norm MLP and a batch, so the
// arena path is exercised with a non-unit spectral scale and real weights.
func scratchFixture(batch int) (*Classifier, *mat.Dense) {
	c, x, y, s, opt := trainStepFixture(batch)
	c.TrainStep(x, y, s, opt, FairConfig{Mu: 0.1, Eps: 0.01}, 1.0)
	return c, x
}

// Property: the arena inference pass is bit-identical to the nil-arena
// (heap) pass across batch shapes, including batch 1 (the serving hot case)
// and shapes that change between passes over the same arena.
func TestLogitsAndFeaturesScratchBitIdentical(t *testing.T) {
	c, _ := scratchFixture(8)
	rng := rand.New(rand.NewSource(17))
	var a mat.Arena
	for _, batch := range []int{1, 2, 7, 32, 1, 64} {
		x := mat.NewDense(batch, c.cfg.InputDim)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		wantL, wantF := c.LogitsAndFeatures(x, nil)
		a.Reset()
		gotL, gotF := c.LogitsAndFeatures(x, &a)
		if wantL.Rows != gotL.Rows || wantL.Cols != gotL.Cols {
			t.Fatalf("batch %d: logits shape %dx%d vs %dx%d", batch, wantL.Rows, wantL.Cols, gotL.Rows, gotL.Cols)
		}
		for i := range wantL.Data {
			if wantL.Data[i] != gotL.Data[i] {
				t.Fatalf("batch %d: logits differ at %d: %v vs %v", batch, i, wantL.Data[i], gotL.Data[i])
			}
		}
		for i := range wantF.Data {
			if wantF.Data[i] != gotF.Data[i] {
				t.Fatalf("batch %d: features differ at %d: %v vs %v", batch, i, wantF.Data[i], gotF.Data[i])
			}
		}
	}
}

// The tentpole pin: at a fixed batch shape, the arena-backed inference pass
// performs zero heap allocations at steady state (the TrainStep invariant,
// extended to serving). Kernel forced serial like the TrainStep pin — the
// parallel handoff is also allocation-free but its worker growth is one-time.
func TestLogitsAndFeaturesScratchSteadyStateAllocs(t *testing.T) {
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)

	c, x := scratchFixture(32)
	var a mat.Arena
	loop := func() {
		a.Reset()
		logits, features := c.LogitsAndFeatures(x, &a)
		_, _ = logits, features
	}
	for i := 0; i < 10; i++ {
		loop()
	}
	if allocs := testing.AllocsPerRun(20, loop); allocs != 0 {
		t.Fatalf("steady-state arena-backed LogitsAndFeatures allocates %.1f allocs/op, want 0", allocs)
	}
}

// Concurrent arena-backed inference against one shared classifier must be
// race-free (run with -race) and agree with the serial answer — the /predict
// serving contract.
func TestLogitsAndFeaturesScratchConcurrent(t *testing.T) {
	c, x := scratchFixture(16)
	wantL, wantF := c.LogitsAndFeatures(x, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a mat.Arena
			for rep := 0; rep < 50; rep++ {
				a.Reset()
				gotL, gotF := c.LogitsAndFeatures(x, &a)
				for i := range wantL.Data {
					if gotL.Data[i] != wantL.Data[i] {
						t.Errorf("concurrent logits differ at %d", i)
						return
					}
				}
				for i := range wantF.Data {
					if gotF.Data[i] != wantF.Data[i] {
						t.Errorf("concurrent features differ at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The tiled passes share the classifier's arena. A pass that finds it
// taken, by a concurrent pass or by the pass it runs inside, takes an arena
// of its own: every pass returns the bits of a heap pass, and an inner pass
// leaves the outer tile it runs from intact (run with -race).
func TestTiledPassesConcurrentAndReentrant(t *testing.T) {
	c, x, _, _ := paperFixture(TileRows + 44)
	want, _ := c.LogitsAndFeatures(x, nil)
	c.InferTiles(x, func(off int, logits, _ *mat.Dense) {
		if i := firstDiff(c.Logits(x).Data, want.Data); i >= 0 {
			t.Fatalf("Logits inside the tile at row %d differs at %d", off, i)
		}
		if i := firstDiff(logits.Data, want.Data[off*want.Cols:][:len(logits.Data)]); i >= 0 {
			t.Fatalf("tile at row %d differs at %d after an inner pass", off, i)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if i := firstDiff(c.Logits(x).Data, want.Data); i >= 0 {
					t.Errorf("concurrent Logits differs at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Dropout classifiers must keep working through the arena path: outside
// MC-dropout the layer is the identity, so the pooled pass matches the heap
// pass (ForceActive dropout would fall back to the layer-owned masked
// Forward).
func TestForwardScratchWithDropoutIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewClassifier(Config{InputDim: 8, NumClasses: 2, Hidden: []int{16}, DropoutRate: 0.5, Seed: 9})
	x := mat.NewDense(4, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Inference mode: dropout is the identity, the arena pass must agree.
	want, _ := c.LogitsAndFeatures(x, nil)
	var a mat.Arena
	got, _ := c.LogitsAndFeatures(x, &a)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("dropout-identity scratch pass differs at %d", i)
		}
	}
}

// BenchmarkLogitsAndFeatures is the forward pass with heap activations
// (alloc) and with an owned arena (scratch, the serving path).
func BenchmarkLogitsAndFeatures(b *testing.B) {
	c, x := scratchFixture(32)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = c.LogitsAndFeatures(x, nil)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var a mat.Arena
		pass := func() {
			a.Reset()
			_, _ = c.LogitsAndFeatures(x, &a)
		}
		pass() // grow the arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
}

// Property: Features returns exactly the bits of LogitsAndFeatures'
// features on the paper's hidden-512 model, on the wide model (three hidden
// layers, dropout after each) and on a linear model (Hidden = nil, whose
// tap is the logits), and, on the hidden models, allocates less: the layers
// after the tap do not run.
func TestFeaturesStopAtTapBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	paper, _, _, _ := paperFixture(8)
	for name, c := range map[string]*Classifier{
		"hidden512": paper,
		"wide":      NewClassifier(Config{InputDim: 16, NumClasses: 2, Hidden: WideHidden(), SpectralNorm: true, DropoutRate: 0.2, Seed: 3}),
		"linear":    NewClassifier(Config{InputDim: 16, NumClasses: 3, SpectralNorm: true, Seed: 4}),
	} {
		x := mat.NewDense(37, 16)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		_, want := c.LogitsAndFeatures(x, nil)
		got := c.Features(x)
		if got.Rows != want.Rows || got.Cols != want.Cols || got.Cols != c.FeatureDim() {
			t.Fatalf("%s: features %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		if i := firstDiff(got.Data, want.Data); i >= 0 {
			t.Fatalf("%s: feature %d is %v, LogitsAndFeatures has %v", name, i, got.Data[i], want.Data[i])
		}
		// The sharded products take their WaitGroups from wgPool, whose
		// race-mode Puts are dropped, so the counts compare only without
		// the race detector.
		if name == "linear" || testutil.RaceEnabled {
			continue
		}
		full := testing.AllocsPerRun(5, func() { c.LogitsAndFeatures(x, nil) })
		tap := testing.AllocsPerRun(5, func() { c.Features(x) })
		if tap >= full {
			t.Fatalf("%s: Features allocates %v times per call, the full pass %v", name, tap, full)
		}
	}
}
