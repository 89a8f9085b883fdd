package gda

import (
	"fmt"
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

// A batch is filled in order: a tile whose off is not the number of rows
// the batch holds panics, and so does a tile from an estimator of another
// shape. Neither leaves a mark on the batch, which still takes its next
// tile.
func TestSliceIntoCopiesAndReleaseGuards(t *testing.T) {
	e, batch := poolFixture(t, 10)
	var b BatchScores
	e.ScoreRows(&b, 0, batch)
	for _, off := range []int{-1, 1, batch.Rows - 1, batch.Rows + 1} {
		mustPanicGDA(t, fmt.Sprintf("tile at row %d of a %d-row batch", off, batch.Rows),
			func() { e.ScoreRows(&b, off, batch) })
	}
	oneGroup, err := FitClassOnly(batch, make([]int, batch.Rows), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	y := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	s := []int{-1, 1, -1, 1, -1, 1, -1, 1, -1, 1}
	threeClass, err := Fit(batch, y, s, 3, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*Estimator{"one group": oneGroup, "three classes": threeClass} {
		mustPanicGDA(t, "tile from an estimator with "+name, func() { other.ScoreRows(&b, batch.Rows, batch) })
	}
	if len(b.LogG) != batch.Rows {
		t.Fatalf("refused tiles left a %d-row batch, want %d", len(b.LogG), batch.Rows)
	}
	e.ScoreRows(&b, batch.Rows, batch)
	b.Scale()
	for i := 0; i < batch.Rows; i++ {
		if b.LogG[i] != b.LogG[batch.Rows+i] || b.G[i] != b.G[batch.Rows+i] {
			t.Fatalf("row %d and its repeat differ: LogG %v/%v", i, b.LogG[i], b.LogG[batch.Rows+i])
		}
	}
}

// A reused BatchScores destination must produce values identical to a fresh
// one even after serving a larger batch first (stale capacity is invisible).
func TestSliceIntoReusedDstIdentical(t *testing.T) {
	e, big := poolFixture(t, 24)
	small := mat.NewDense(5, big.Cols)
	copy(small.Data, big.Data[:len(small.Data)])

	var reused BatchScores
	e.ScoreRows(&reused, 0, big)
	reused.Scale()
	e.ScoreRows(&reused, 0, small)
	reused.Scale()
	checkSameScores(t, "reused after a larger batch", reused, e.scoreBatch(small))
}

// A BatchScores reused across estimators must carry what a fresh one
// carries: after a two-group batch, a one-group estimator's batch has an
// all-zero Delta, with no gap left over from the batch before.
func TestReusedBatchScoresZeroDeltaAfterOneGroup(t *testing.T) {
	two, f := fitFixture(t, 64, 4, 2, []int{-1, 1})
	one, _ := fitFixture(t, 64, 4, 2, []int{0})
	var reused BatchScores
	two.ScoreRows(&reused, 0, f)
	reused.Scale()
	one.ScoreRows(&reused, 0, f)
	reused.Scale()
	fresh := one.scoreBatch(f)
	stale := 0
	for i := range fresh.Delta {
		for c, want := range fresh.Delta[i] {
			if want != 0 {
				t.Fatalf("fresh one-group Delta[%d][%d] = %v, want 0", i, c, want)
			}
			if reused.Delta[i][c] != want {
				stale++
			}
		}
	}
	if stale > 0 {
		t.Fatalf("reused BatchScores carries %d stale Delta entries of %d", stale, f.Rows*one.Classes)
	}
	checkSameScores(t, "reused across estimators", reused, fresh)
}

// ScoreRows without Scale into reused storage carries the LogG of fresh
// storage, after a larger batch from another estimator, and Scale leaves
// LogG as ScoreRows wrote it.
func TestLogDensityBatchIntoMatches(t *testing.T) {
	e, batch := poolFixture(t, 17)
	want := e.logDensityBatch(batch)
	other, big := fitFixture(t, 40, batch.Cols, 3, []int{0})
	var reused BatchScores
	other.ScoreRows(&reused, 0, big)
	e.ScoreRows(&reused, 0, batch)
	if !equalBits(reused.LogG, want) {
		t.Fatalf("reused LogG %v, fresh %v", reused.LogG, want)
	}
	reused.Scale()
	if !equalBits(reused.LogG, want) {
		t.Fatal("Scale changed LogG")
	}
}

// The read-path pin: at fixed batch shape, a steady-state loop of ScoreRows
// and Scale into one BatchScores (/score) and one of ScoreRows alone
// (/predict) allocate nothing.
func TestScoreBatchRawSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)

	e, batch := poolFixture(t, 16)
	var bs, dens BatchScores
	scoreLoop := func() {
		e.ScoreRows(&bs, 0, batch)
		bs.Scale()
	}
	densLoop := func() { e.ScoreRows(&dens, 0, batch) }
	for i := 0; i < 10; i++ {
		scoreLoop()
		densLoop()
	}
	if n := testing.AllocsPerRun(50, scoreLoop); n != 0 {
		t.Fatalf("steady-state ScoreRows+Scale allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, densLoop); n != 0 {
		t.Fatalf("steady-state ScoreRows allocates %.1f allocs/op, want 0", n)
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
