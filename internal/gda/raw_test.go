package gda

import (
	"fmt"
	"testing"

	"faction/internal/mat"
)

// Property: BatchScores.LogG carries exactly the per-row log g(z) that
// LogDensity computes — the field exists so /score can feed OOD and drift
// without a second density pass.
func TestScoreBatchLogGMatchesLogDensity(t *testing.T) {
	for _, sens := range [][]int{{-1, 1}, {0}} {
		e, f := fitFixture(t, 96, 6, 3, sens)
		batch := e.ScoreBatch(f)
		if len(batch.LogG) != f.Rows {
			t.Fatalf("LogG has %d entries, want %d", len(batch.LogG), f.Rows)
		}
		for i := 0; i < f.Rows; i++ {
			if want := e.LogDensity(f.Row(i)); batch.LogG[i] != want {
				t.Fatalf("sens %v: LogG[%d] = %v, LogDensity = %v", sens, i, batch.LogG[i], want)
			}
		}
	}
}

// Property: LogDensityBatch is bit-identical to the serial per-row loop it
// replaces, at any worker-pool width.
func TestLogDensityBatchMatchesSerial(t *testing.T) {
	old := mat.Parallelism()
	defer mat.SetParallelism(old)
	e, f := fitFixture(t, 200, 5, 2, []int{-1, 1})
	want := make([]float64, f.Rows)
	for i := range want {
		want[i] = e.LogDensity(f.Row(i))
	}
	for _, p := range []int{1, 4} {
		mat.SetParallelism(p)
		got := e.LogDensityBatch(f)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: LogDensityBatch[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

// Property: slicing one raw pass over a concatenated batch is bit-identical
// to scoring each sub-range alone, and so is slicing a RawScores that
// ScoreRows filled range by range.
func TestRawSliceBitIdenticalToSubsetScoreBatch(t *testing.T) {
	old := mat.Parallelism()
	defer mat.SetParallelism(old)
	for _, p := range []int{1, 4} {
		mat.SetParallelism(p)
		for _, sens := range [][]int{{-1, 1}, {0}, {-1, 0, 1}} {
			e, f := fitFixture(t, 64, 4, 2, sens)
			raw := e.ScoreBatchRaw(f)
			tiled := e.NewRawScores(f.Rows)
			for _, r := range [][2]int{{30, 64}, {0, 5}, {5, 5}, {5, 30}} {
				e.ScoreRows(tiled, r[0], mat.NewDenseData(r[1]-r[0], f.Cols, f.Data[r[0]*f.Cols:r[1]*f.Cols]))
			}
			for _, r := range [][2]int{{0, f.Rows}, {0, 1}, {5, 6}, {3, 17}, {40, 64}, {10, 10}} {
				lo, hi := r[0], r[1]
				sub := mat.NewDense(hi-lo, f.Cols)
				for i := lo; i < hi; i++ {
					copy(sub.Row(i-lo), f.Row(i))
				}
				want := e.ScoreBatch(sub)
				for _, got := range []BatchScores{raw.Slice(lo, hi), tiled.Slice(lo, hi)} {
					checkSameScores(t, fmt.Sprintf("p=%d sens=%v [%d,%d)", p, sens, lo, hi), got, want)
				}
			}
			raw.Release()
			tiled.Release()
		}
	}
}

// checkSameScores fails unless got and want carry the same bits.
func checkSameScores(t *testing.T, name string, got, want BatchScores) {
	t.Helper()
	if got.LogScale != want.LogScale {
		t.Fatalf("%s: LogScale %v != %v", name, got.LogScale, want.LogScale)
	}
	for i := range want.G {
		if got.G[i] != want.G[i] || got.LogG[i] != want.LogG[i] {
			t.Fatalf("%s: row %d G %v/%v LogG %v/%v", name, i, got.G[i], want.G[i], got.LogG[i], want.LogG[i])
		}
		for c := range want.Delta[i] {
			if got.Delta[i][c] != want.Delta[i][c] {
				t.Fatalf("%s: Delta[%d][%d] %v != %v", name, i, c, got.Delta[i][c], want.Delta[i][c])
			}
		}
	}
}
