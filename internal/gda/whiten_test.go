package gda

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

// logPDFSolve is log N(z; μ_c, Σ_c) with the Mahalanobis term computed by
// forward substitution on the component's Cholesky factor, one row at a
// time: the package's reference for the whitened scoring path.
func logPDFSolve(c *Component, z []float64) float64 {
	d, l := len(z), c.chol.L().Data
	y := make([]float64, d)
	for i := 0; i < d; i++ {
		sum := z[i] - c.Mean[i]
		for k, v := range l[i*d : i*d+i] {
			sum -= v * y[k]
		}
		y[i] = sum / l[i*d+i]
	}
	return c.logNormBase - 0.5*mat.Dot(y, y)
}

// Differential test of the whitened scoring path against the triangular-solve
// reference: every density entry point must agree with the log-sum-exp of
// logPDFSolve terms under relative tolerance (bit-equality is deliberately
// NOT the contract — the two paths order the same products differently; see
// DESIGN.md §12).
func TestWhitenedDensityMatchesSolveReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, d    int
		classes int
		sens    []int
	}{
		{"two-group", 140, 12, 2, []int{-1, 1}},
		{"multi-valued", 120, 7, 3, []int{0, 1, 2}},
		{"class-only", 90, 16, 2, []int{0}},
		{"near-singular", 20, 16, 2, []int{-1, 1}}, // n ≈ d: shrinkage + ridge rescue
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, f := fitFixture(t, tc.n, tc.d, tc.classes, tc.sens)
			terms := make([]float64, len(e.ordered))
			for i := 0; i < f.Rows; i++ {
				for j, c := range e.ordered {
					terms[j] = c.logWeight + logPDFSolve(c, f.Row(i))
				}
				want := mat.LogSumExp(terms)
				got := e.LogDensity(f.Row(i))
				if rel := math.Abs(got-want) / (1 + math.Abs(want)); rel > 1e-9 {
					t.Fatalf("row %d: whitened %v vs solve %v (rel %g)", i, got, want, rel)
				}
			}
			// Conditional densities against the per-component solve.
			for _, c := range e.ordered {
				for i := 0; i < 5; i++ {
					want := logPDFSolve(c, f.Row(i))
					got := e.LogCondDensity(f.Row(i), c.Y, c.S)
					if rel := math.Abs(got-want) / (1 + math.Abs(want)); rel > 1e-9 {
						t.Fatalf("row %d comp (%d,%d): whitened %v vs solve %v (rel %g)",
							i, c.Y, c.S, got, want, rel)
					}
				}
			}
		})
	}
}

// LogCondDensity must carry the exact bits ScoreBatchRaw records for the
// same (row, class, group) — both run the same whitened kernel on the same
// stack, and the serving layer mixes values from both entry points.
func TestLogCondDensityMatchesBatchBits(t *testing.T) {
	e, f := fitFixture(t, 60, 9, 2, []int{-1, 1})
	raw := e.ScoreBatchRaw(f)
	defer raw.Release()
	ns := len(e.SensValues)
	for i := 0; i < f.Rows; i += 7 {
		for _, c := range e.ordered {
			got := e.LogCondDensity(f.Row(i), c.Y, c.S)
			want := raw.logCond[(i*e.Classes+c.Y)*ns+c.sIdx]
			if got != want {
				t.Fatalf("row %d comp (%d,%d): LogCondDensity %v, batch logCond %v", i, c.Y, c.S, got, want)
			}
		}
	}
}

// Non-finite features must poison exactly the rows carrying them, and leave
// every clean row's scores bit-identical to a batch without the bad rows —
// the GEMM-style kernel must not leak NaN/Inf across lanes.
func TestScoreBatchNonFinitePropagation(t *testing.T) {
	e, f := fitFixture(t, 40, 8, 2, []int{-1, 1})
	cleanRaw := e.ScoreBatchRaw(f)
	defer cleanRaw.Release()

	dirty := f.Clone()
	const nanRow, infRow = 3, 17
	dirty.Row(nanRow)[2] = math.NaN()
	dirty.Row(infRow)[5] = math.Inf(-1)
	raw := e.ScoreBatchRaw(dirty)
	defer raw.Release()

	for i := 0; i < dirty.Rows; i++ {
		switch i {
		case nanRow:
			if !math.IsNaN(raw.LogG[i]) {
				t.Fatalf("NaN row LogG = %v, want NaN", raw.LogG[i])
			}
		case infRow:
			if !math.IsNaN(raw.LogG[i]) && !math.IsInf(raw.LogG[i], 0) {
				t.Fatalf("Inf row LogG = %v, want non-finite", raw.LogG[i])
			}
		default:
			if raw.LogG[i] != cleanRaw.LogG[i] {
				t.Fatalf("clean row %d LogG perturbed by non-finite neighbors: %v vs %v",
					i, raw.LogG[i], cleanRaw.LogG[i])
			}
		}
	}
	// LogDensity on the poisoned rows agrees with the batch values bit for bit.
	if v := e.LogDensity(dirty.Row(nanRow)); !math.IsNaN(v) {
		t.Fatalf("LogDensity of NaN row = %v, want NaN", v)
	}
}

// The snapshot stores Cholesky factors, not the whitening; Load re-derives
// W and m̃ through the same deterministic inversion as Fit, so the stacks
// must match bit for bit — the foundation of the persisted-model scoring
// guarantees.
func TestPersistRoundTripWhiteningBits(t *testing.T) {
	e, _ := fitFixture(t, 130, 11, 3, []int{-1, 1})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.wstack.(*mat.WhitenedStack[float64]), loaded.wstack.(*mat.WhitenedStack[float64])
	if a.Components() != b.Components() || a.Dim() != b.Dim() {
		t.Fatalf("stack shape differs: fit %dx%d comps, load %dx%d",
			a.Dim(), a.Components(), b.Dim(), b.Components())
	}
	for k := 0; k < a.Components(); k++ {
		fw, lw := a.Factor(k), b.Factor(k)
		for i := range fw {
			if fw[i] != lw[i] {
				t.Fatalf("factor %d: W[%d] differs after round trip: %v vs %v", k, i, fw[i], lw[i])
			}
		}
		fm, lm := a.WhitenedMean(k), b.WhitenedMean(k)
		for i := range fm {
			if fm[i] != lm[i] {
				t.Fatalf("factor %d: m̃[%d] differs after round trip: %v vs %v", k, i, fm[i], lm[i])
			}
		}
	}
	// And therefore the scored bits agree too.
	rng := rand.New(rand.NewSource(73))
	probe := mat.NewDense(9, e.Dim)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	got := loaded.LogDensityBatch(probe)
	want := e.LogDensityBatch(probe)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LogDensity[%d] differs after round trip: %v vs %v", i, got[i], want[i])
		}
	}
}
