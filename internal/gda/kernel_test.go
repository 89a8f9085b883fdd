package gda

import (
	"math/rand"
	"testing"

	"faction/internal/mat"
)

func fitFixture(t testing.TB, n, d, classes int, sens []int) (*Estimator, *mat.Dense) {
	t.Helper()
	f, y, s := fixtureData(n, d, classes, sens)
	e, err := Fit(f, y, s, classes, sens, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

// fixtureData is fitFixture's input: n Gaussian rows at dimension d with
// random labels and sensitive values.
func fixtureData(n, d, classes int, sens []int) (*mat.Dense, []int, []int) {
	rng := rand.New(rand.NewSource(17))
	f := mat.NewDense(n, d)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	s := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
		s[i] = sens[rng.Intn(len(sens))]
	}
	return f, y, s
}

// Property: a batch's density pass sharded across the worker pool is
// bit-identical to the serial evaluation, for both the two-group and the
// multi-valued estimator, for batches smaller than the shard grain and for
// low-rank components.
func TestScoreBatchParallelBitIdentical(t *testing.T) {
	old := mat.Parallelism()
	defer mat.SetParallelism(old)
	for _, tc := range []struct {
		name    string
		n, d    int
		classes int
		sens    []int
	}{
		{"two-group", 100, 6, 2, []int{-1, 1}},
		{"multi-valued", 90, 6, 3, []int{0, 1, 2}},
		{"class-only", 60, 6, 2, []int{0}},
		{"below-grain", scoreBatchMinGrain - 1, 6, 2, []int{-1, 1}},
		{"low-rank", 60, 48, 2, []int{-1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, f := fitFixture(t, tc.n, tc.d, tc.classes, tc.sens)
			mat.SetParallelism(1)
			serial := e.scoreBatch(f)
			mat.SetParallelism(4)
			parallel := e.scoreBatch(f)
			if serial.LogScale != parallel.LogScale {
				t.Fatalf("LogScale differs: serial %v parallel %v", serial.LogScale, parallel.LogScale)
			}
			for i := range serial.G {
				if serial.G[i] != parallel.G[i] {
					t.Fatalf("G[%d] differs: serial %v parallel %v", i, serial.G[i], parallel.G[i])
				}
				for c := range serial.Delta[i] {
					if serial.Delta[i][c] != parallel.Delta[i][c] {
						t.Fatalf("Delta[%d][%d] differs: serial %v parallel %v",
							i, c, serial.Delta[i][c], parallel.Delta[i][c])
					}
				}
			}
		})
	}
}

// Scores must be reproducible run to run: the component sum follows the
// sorted (Y, S) ordering, not Go's randomized map iteration.
func TestScoreBatchDeterministic(t *testing.T) {
	e, f := fitFixture(t, 80, 5, 3, []int{-1, 0, 1})
	first := e.scoreBatch(f)
	for rep := 0; rep < 5; rep++ {
		again := e.scoreBatch(f)
		for i := range first.G {
			if first.G[i] != again.G[i] {
				t.Fatalf("rep %d: G[%d] changed between identical calls", rep, i)
			}
		}
	}
	for i := 0; i < f.Rows; i++ {
		if a, b := e.LogDensity(f.Row(i)), e.LogDensity(f.Row(i)); a != b {
			t.Fatalf("LogDensity(row %d) not deterministic: %v vs %v", i, a, b)
		}
	}
}

// The ordered component list must cover exactly the fitted map, sorted.
func TestFinalizeOrdering(t *testing.T) {
	e, _ := fitFixture(t, 120, 4, 3, []int{-1, 1})
	if len(e.ordered) != len(e.comps) {
		t.Fatalf("ordered has %d components, map has %d", len(e.ordered), len(e.comps))
	}
	for j := 1; j < len(e.ordered); j++ {
		a, b := e.ordered[j-1], e.ordered[j]
		if a.Y > b.Y || (a.Y == b.Y && a.S >= b.S) {
			t.Fatalf("ordered[%d]=(%d,%d) not before ordered[%d]=(%d,%d)", j-1, a.Y, a.S, j, b.Y, b.S)
		}
		if e.Component(b.Y, b.S) != b {
			t.Fatalf("ordered[%d] not the map's component", j)
		}
	}
}

// scoreBenchFixture is a 2-class × 2-group estimator fitted on 256 samples
// and a 512×64 probe batch: density scoring at pool scale.
func scoreBenchFixture(b *testing.B) (*Estimator, *mat.Dense) {
	e, _ := fitFixture(b, 256, 64, 2, []int{-1, 1})
	rng := rand.New(rand.NewSource(23))
	probe := mat.NewDense(512, 64)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	return e, probe
}

// benchScoring runs body on scoreBenchFixture as the sub-benchmark f64. The
// name is kept from when a float32 row ran beside it: the benchmark gate
// pairs rows by name with the base commit's, so a renamed row would be
// reported one-sided and compared with nothing.
func benchScoring(b *testing.B, body func(b *testing.B, e *Estimator, probe *mat.Dense)) {
	e, probe := scoreBenchFixture(b)
	b.Run("f64", func(b *testing.B) { body(b, e, probe) })
}

// BenchmarkGDAScoreBatch is ScoreRows and Scale (Eqs. 3–5) into a fresh
// BatchScores per call.
func BenchmarkGDAScoreBatch(b *testing.B) {
	benchScoring(b, func(b *testing.B, e *Estimator, probe *mat.Dense) {
		e.scoreBatch(probe) // refill the pools the pre-run GC emptied
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.scoreBatch(probe)
		}
	})
}

// BenchmarkGDAScoreBatchRaw is the loop the serving layer runs: ScoreRows
// and Scale into one reused BatchScores. Its steady state allocates nothing
// (pinned by TestScoreBatchRawSteadyStateAllocs).
func BenchmarkGDAScoreBatchRaw(b *testing.B) {
	benchScoring(b, func(b *testing.B, e *Estimator, probe *mat.Dense) {
		var batch BatchScores
		loop := func() {
			e.ScoreRows(&batch, 0, probe)
			batch.Scale()
		}
		loop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loop()
		}
	})
}

// BenchmarkLogDensityBatch is Eq. 3 over the same batch, ScoreRows without
// Scale: into a fresh BatchScores per call (alloc) against one reused
// BatchScores (into, the /predict path).
func BenchmarkLogDensityBatch(b *testing.B) {
	e, probe := scoreBenchFixture(b)
	var dst BatchScores
	for _, m := range []struct {
		name string
		call func()
	}{
		{"alloc", func() { e.logDensityBatch(probe) }},
		{"into", func() { e.ScoreRows(&dst, 0, probe) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			m.call()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.call()
			}
		})
	}
}
