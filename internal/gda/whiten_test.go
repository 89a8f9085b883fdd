package gda

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

// logPDFSolve is log N(z; μ_c, Σ_c) with the Mahalanobis term computed by
// forward substitution on a dense Cholesky factor, one row at a time: the
// package's reference for the whitened scoring path.
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

// denseReference returns, for every component of e, its dense form: the
// component itself when it is dense, and for a low-rank one the dense fit of
// the same rows (covariance, ridge, Cholesky factor and log-normaliser, as
// Fit computes them for a dense component) — the reference the low-rank
// form must match.
func denseReference(t *testing.T, e *Estimator, f *mat.Dense, y, s []int) map[*Component]*Component {
	t.Helper()
	ref := map[*Component]*Component{}
	for _, c := range e.ordered {
		if c.lowRank == nil {
			ref[c] = c
			continue
		}
		var rows [][]float64
		for i := range y {
			if y[i] == c.Y && s[i] == c.S {
				rows = append(rows, f.Row(i))
			}
		}
		ch, err := mat.NewCholesky(mat.Covariance(mat.FromRows(rows), c.Mean, c.lowRank.Ridge()))
		if err != nil {
			t.Fatal(err)
		}
		ref[c] = &Component{Mean: c.Mean, chol: ch,
			logNormBase: -0.5*float64(e.Dim)*math.Log(2*math.Pi) - 0.5*ch.LogDet()}
	}
	return ref
}

// Differential test of the whitened scoring path against the triangular-solve
// reference on dense factors: every density entry point must agree with the
// log-sum-exp of logPDFSolve terms under relative tolerance (bit-equality is
// deliberately NOT the contract — the two paths order the same products
// differently; see DESIGN.md §12). Low-rank components (some of
// near-singular's, all of paper-width's) are held to the dense fit of their
// rows under the same tolerance.
func TestWhitenedDensityMatchesSolveReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, d    int
		classes int
		sens    []int
		lowRank bool
	}{
		{"two-group", 140, 12, 2, []int{-1, 1}, false},
		{"multi-valued", 120, 7, 3, []int{0, 1, 2}, false},
		{"class-only", 90, 16, 2, []int{0}, false},
		{"near-singular", 20, 16, 2, []int{-1, 1}, true}, // n ≈ d: 3–8 rows per component
		{"paper-width", 120, 512, 2, []int{-1, 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, y, s := fixtureData(tc.n, tc.d, tc.classes, tc.sens)
			e, err := Fit(f, y, s, tc.classes, tc.sens, Config{})
			if err != nil {
				t.Fatal(err)
			}
			lowRank := 0
			for _, c := range e.ordered {
				if c.lowRank != nil {
					lowRank++
				}
			}
			if (lowRank > 0) != tc.lowRank {
				t.Fatalf("%d of %d components low rank, want some: %v", lowRank, len(e.ordered), tc.lowRank)
			}
			ref := denseReference(t, e, f, y, s)
			terms := make([]float64, len(e.ordered))
			for i := 0; i < f.Rows; i++ {
				for j, c := range e.ordered {
					terms[j] = c.logWeight + logPDFSolve(ref[c], f.Row(i))
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
					want := logPDFSolve(ref[c], f.Row(i))
					got := e.logCondDensity(f.Row(i), c.Y, c.S)
					if rel := math.Abs(got-want) / (1 + math.Abs(want)); rel > 1e-9 {
						t.Fatalf("row %d comp (%d,%d): whitened %v vs solve %v (rel %g)",
							i, c.Y, c.S, got, want, rel)
					}
				}
			}
		})
	}
}

// The per-row reference logCondDensity must carry the exact bits ScoreRows
// keeps for the same (row, class, group): both run the same whitened kernel
// on the same stack, the one on a single row.
func TestLogCondDensityMatchesBatchBits(t *testing.T) {
	e, f := fitFixture(t, 60, 9, 2, []int{-1, 1})
	var b BatchScores
	e.ScoreRows(&b, 0, f)
	ns := len(e.SensValues)
	for i := 0; i < f.Rows; i += 7 {
		for _, c := range e.ordered {
			got := e.logCondDensity(f.Row(i), c.Y, c.S)
			want := b.logCond[(i*e.Classes+c.Y)*ns+c.sIdx]
			if got != want {
				t.Fatalf("row %d comp (%d,%d): logCondDensity %v, batch logCond %v", i, c.Y, c.S, got, want)
			}
		}
	}
}

// Non-finite features must poison exactly the rows carrying them, and leave
// every clean row's scores bit-identical to a batch without the bad rows —
// the GEMM-style kernel must not leak NaN/Inf across lanes.
func TestScoreBatchNonFinitePropagation(t *testing.T) {
	e, f := fitFixture(t, 40, 8, 2, []int{-1, 1})
	clean := e.logDensityBatch(f)

	dirty := f.Clone()
	const nanRow, infRow = 3, 17
	dirty.Row(nanRow)[2] = math.NaN()
	dirty.Row(infRow)[5] = math.Inf(-1)
	logG := e.logDensityBatch(dirty)

	for i := 0; i < dirty.Rows; i++ {
		switch i {
		case nanRow:
			if !math.IsNaN(logG[i]) {
				t.Fatalf("NaN row LogG = %v, want NaN", logG[i])
			}
		case infRow:
			if !math.IsNaN(logG[i]) && !math.IsInf(logG[i], 0) {
				t.Fatalf("Inf row LogG = %v, want non-finite", logG[i])
			}
		default:
			if logG[i] != clean[i] {
				t.Fatalf("clean row %d LogG perturbed by non-finite neighbors: %v vs %v",
					i, logG[i], clean[i])
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
	a, b := e.wstack, loaded.wstack
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
	got := loaded.logDensityBatch(probe)
	want := e.logDensityBatch(probe)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LogDensity[%d] differs after round trip: %v vs %v", i, got[i], want[i])
		}
	}
}
