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
		batch := e.scoreBatch(f)
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

// Property: the LogG of ScoreRows without Scale is bit-identical to the
// serial per-row loop it replaces, at any worker-pool width.
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
		got := e.logDensityBatch(f)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: LogG[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

// Property: a batch filled tile by tile, in order, and then scaled carries
// the bits of one ScoreRows over all its rows, empty tiles included.
func TestRawSliceBitIdenticalToSubsetScoreBatch(t *testing.T) {
	old := mat.Parallelism()
	defer mat.SetParallelism(old)
	for _, p := range []int{1, 4} {
		mat.SetParallelism(p)
		for _, sens := range [][]int{{-1, 1}, {0}, {-1, 0, 1}} {
			e, f := fitFixture(t, 64, 4, 2, sens)
			want := e.scoreBatch(f)
			for _, ends := range [][]int{{5, 5, 30, 64}, {1, 64}, {63, 64}, {64}} {
				var tiled BatchScores
				off := 0
				for _, end := range ends {
					e.ScoreRows(&tiled, off, mat.NewDenseData(end-off, f.Cols, f.Data[off*f.Cols:end*f.Cols]))
					off = end
				}
				tiled.Scale()
				checkSameScores(t, fmt.Sprintf("p=%d sens=%v tiles ending %v", p, sens, ends), tiled, want)
			}
		}
	}
}

// checkSameScores fails unless got and want carry the same bits.
func checkSameScores(t *testing.T, name string, got, want BatchScores) {
	t.Helper()
	if got.LogScale != want.LogScale {
		t.Fatalf("%s: LogScale %v != %v", name, got.LogScale, want.LogScale)
	}
	if len(got.G) != len(want.G) || len(got.LogG) != len(want.LogG) || len(got.Delta) != len(want.Delta) {
		t.Fatalf("%s: %d/%d/%d rows, want %d/%d/%d", name,
			len(got.G), len(got.LogG), len(got.Delta), len(want.G), len(want.LogG), len(want.Delta))
	}
	for i := range want.G {
		if got.G[i] != want.G[i] || got.LogG[i] != want.LogG[i] {
			t.Fatalf("%s: row %d G %v/%v LogG %v/%v", name, i, got.G[i], want.G[i], got.LogG[i], want.LogG[i])
		}
		if len(got.Delta[i]) != len(want.Delta[i]) {
			t.Fatalf("%s: Delta[%d] has %d classes, want %d", name, i, len(got.Delta[i]), len(want.Delta[i]))
		}
		for c := range want.Delta[i] {
			if got.Delta[i][c] != want.Delta[i][c] {
				t.Fatalf("%s: Delta[%d][%d] %v != %v", name, i, c, got.Delta[i][c], want.Delta[i][c])
			}
		}
	}
}
