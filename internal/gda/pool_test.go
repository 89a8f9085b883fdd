package gda

import (
	"math/rand"
	"testing"

	"faction/internal/mat"
	"faction/internal/testutil"
)

// poolFixture fits a two-class × two-group estimator and returns a scoring
// batch, shared by the pooling tests.
func poolFixture(t testing.TB, rows int) (*Estimator, *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	const n, d = 120, 6
	f := mat.NewDense(n, d)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		s[i] = 1 - 2*(i/2%2)
		for j := 0; j < d; j++ {
			f.Set(i, j, float64(y[i])+0.3*float64(s[i])+rng.NormFloat64())
		}
	}
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	batch := mat.NewDense(rows, d)
	for i := range batch.Data {
		batch.Data[i] = rng.NormFloat64()
	}
	return e, batch
}

// SliceInto must copy LogG (not alias the pooled RawScores) and agree exactly
// with Slice; Released RawScores must panic on reuse, and ScoreRows must
// panic on rows outside its RawScores.
func TestSliceIntoCopiesAndReleaseGuards(t *testing.T) {
	e, batch := poolFixture(t, 10)
	raw := e.ScoreBatchRaw(batch)
	want := raw.Slice(2, 7)
	var got BatchScores
	raw.SliceInto(&got, 2, 7)
	// Scribble over the raw storage; the slices must be unaffected.
	for i := range raw.LogG {
		raw.LogG[i] = -1e300
	}
	for i := range want.LogG {
		if want.LogG[i] == -1e300 || got.LogG[i] == -1e300 {
			t.Fatal("slice LogG aliases the RawScores storage")
		}
		if want.LogG[i] != got.LogG[i] || want.G[i] != got.G[i] {
			t.Fatalf("Slice and SliceInto disagree at %d", i)
		}
		for c := range want.Delta[i] {
			if want.Delta[i][c] != got.Delta[i][c] {
				t.Fatalf("Delta disagrees at %d/%d", i, c)
			}
		}
	}
	raw.Release()
	mustPanicGDA(t, "Slice after Release", func() { raw.Slice(0, 1) })
	mustPanicGDA(t, "ScoreRows after Release", func() { e.ScoreRows(raw, 0, batch) })
	mustPanicGDA(t, "double Release", func() { raw.Release() })
	short := e.NewRawScores(batch.Rows - 1)
	mustPanicGDA(t, "ScoreRows past the last row", func() { e.ScoreRows(short, 0, batch) })
	mustPanicGDA(t, "ScoreRows before the first row", func() { e.ScoreRows(short, -1, batch) })
	short.Release()
}

// A reused BatchScores destination must produce values identical to a fresh
// one even after serving a larger batch first (stale capacity is invisible).
func TestSliceIntoReusedDstIdentical(t *testing.T) {
	e, big := poolFixture(t, 24)
	small := mat.NewDense(5, big.Cols)
	copy(small.Data, big.Data[:len(small.Data)])

	var reused BatchScores
	rawBig := e.ScoreBatchRaw(big)
	rawBig.SliceInto(&reused, 0, 24)
	rawBig.Release()

	rawSmall := e.ScoreBatchRaw(small)
	rawSmall.SliceInto(&reused, 0, 5)
	fresh := rawSmall.Slice(0, 5)
	rawSmall.Release()

	if len(reused.G) != 5 || len(reused.Delta) != 5 || len(reused.LogG) != 5 {
		t.Fatalf("reused dst lengths %d/%d/%d, want 5", len(reused.G), len(reused.Delta), len(reused.LogG))
	}
	for i := range fresh.G {
		if reused.G[i] != fresh.G[i] || reused.LogG[i] != fresh.LogG[i] {
			t.Fatalf("reused dst differs at %d", i)
		}
		for c := range fresh.Delta[i] {
			if reused.Delta[i][c] != fresh.Delta[i][c] {
				t.Fatalf("reused Delta differs at %d/%d", i, c)
			}
		}
	}
}

// LogDensityBatchInto must agree bit-for-bit with LogDensityBatch.
func TestLogDensityBatchIntoMatches(t *testing.T) {
	e, batch := poolFixture(t, 17)
	want := e.LogDensityBatch(batch)
	got := make([]float64, 17)
	e.LogDensityBatchInto(got, batch)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("LogDensityBatchInto differs at %d: %v vs %v", i, want[i], got[i])
		}
	}
	mustPanicGDA(t, "bad dst length", func() { e.LogDensityBatchInto(make([]float64, 3), batch) })
}

// The read-path pin: a steady-state ScoreBatchRaw → SliceInto → Release loop
// and a LogDensityBatchInto loop allocate nothing at fixed batch shape.
func TestScoreBatchRawSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)

	e, batch := poolFixture(t, 16)
	var bs BatchScores
	logG := make([]float64, 16)
	scoreLoop := func() {
		raw := e.ScoreBatchRaw(batch)
		raw.SliceInto(&bs, 0, 16)
		raw.Release()
	}
	densLoop := func() { e.LogDensityBatchInto(logG, batch) }
	for i := 0; i < 10; i++ {
		scoreLoop()
		densLoop()
	}
	if n := testing.AllocsPerRun(50, scoreLoop); n != 0 {
		t.Fatalf("steady-state ScoreBatchRaw+SliceInto allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, densLoop); n != 0 {
		t.Fatalf("steady-state LogDensityBatchInto allocates %.1f allocs/op, want 0", n)
	}
}

func mustPanicGDA(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	f()
}
