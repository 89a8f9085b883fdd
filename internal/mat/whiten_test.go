package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"faction/internal/testutil"
)

// whitenFixtureStack builds a K-factor whitened stack from random SPD
// covariances (sampled with d+extra rows; extra < 0 yields a rank-deficient
// sample covariance that only a ridge rescue makes factorizable — the
// near-singular regime). Returns the stack plus the raw factors and means
// for solve-path reference evaluation. The factors and means depend only on
// the seed, so stacks built from one seed whiten identical inputs.
func whitenFixtureStack(t testing.TB, d, k int, extra int, seed int64) (*WhitenedStack, []*Cholesky, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	stack := NewWhitenedStack(d)
	chols := make([]*Cholesky, k)
	means := make([][]float64, k)
	for f := 0; f < k; f++ {
		rows := d + extra
		if rows < 1 {
			rows = 1
		}
		sample := NewDense(rows, d)
		for i := range sample.Data {
			sample.Data[i] = rng.NormFloat64()
		}
		cov := Covariance(sample, MeanCols(sample), 1e-9)
		ch, _, err := NewCholeskyRidge(cov, 1e-9, 20)
		if err != nil {
			t.Fatalf("factor %d (d=%d extra=%d): %v", f, d, extra, err)
		}
		mean := make([]float64, d)
		for j := range mean {
			mean[j] = 3 * rng.NormFloat64()
		}
		stack.AddFactor(ch, mean)
		chols[f] = ch
		means[f] = mean
	}
	return stack, chols, means
}

// Property: W = L⁻¹ really inverts the factor (W·L = I) and is lower
// triangular with exact zeros above the diagonal.
func TestInvLowerIsInverse(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 8, 17, 64} {
		stack, chols, _ := whitenFixtureStack(t, d, 1, 5, int64(d))
		w := NewDenseData(d, d, append([]float64(nil), stack.Factor(0)...))
		prod := Mul(w, chols[0].L())
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want := 0.0
				if i == j {
					want = 1.0
				}
				if diff := math.Abs(prod.Data[i*d+j] - want); diff > 1e-9 {
					t.Fatalf("d=%d: (W·L)[%d,%d] = %v, want %v", d, i, j, prod.Data[i*d+j], want)
				}
				if j > i && w.Data[i*d+j] != 0 {
					t.Fatalf("d=%d: W[%d,%d] = %v above diagonal, want exact 0", d, i, j, w.Data[i*d+j])
				}
			}
		}
	}
}

// Property: the whitened batch kernel agrees with the per-row triangular
// solve (mahalanobisSolve) under relative tolerance, across
// dimensions (including non-multiples of the lane width), batch sizes
// (including tail blocks), factor counts, and ridge-rescued near-singular
// covariances. Equality of bits is NOT expected: the two paths accumulate
// the same products in different orders.
func TestMahalanobisIntoMatchesSolve(t *testing.T) {
	for _, tc := range []struct {
		d, k, n, extra int
	}{
		{1, 1, 1, 4},
		{2, 3, 9, 4},
		{3, 2, 8, 4},
		{5, 1, 7, 4},
		{8, 4, 16, 8},
		{9, 3, 33, 8},
		{16, 2, 40, 8},
		{33, 3, 21, 8},
		{64, 4, 37, 16},
		// Near-singular: rank-deficient sample covariance, ridge-rescued.
		{12, 2, 19, -5},
		{32, 3, 25, -20},
	} {
		t.Run(fmt.Sprintf("d%d_k%d_n%d_extra%d", tc.d, tc.k, tc.n, tc.extra), func(t *testing.T) {
			stack, chols, means := whitenFixtureStack(t, tc.d, tc.k, tc.extra, int64(tc.d*100+tc.n))
			rng := rand.New(rand.NewSource(int64(tc.n)))
			z := NewDense(tc.n, tc.d)
			for i := range z.Data {
				z.Data[i] = 2 * rng.NormFloat64()
			}
			dst := make([]float64, tc.n*tc.k)
			stack.MahalanobisInto(dst, z, new(WhitenScratch))
			for i := 0; i < tc.n; i++ {
				for f := 0; f < tc.k; f++ {
					want := mahalanobisSolve(chols[f], z.Row(i), means[f])
					got := dst[i*tc.k+f]
					if rel := math.Abs(got-want) / (1 + math.Abs(want)); rel > 1e-9 {
						t.Fatalf("row %d factor %d: whitened %v vs solve %v (rel %g)", i, f, got, want, rel)
					}
				}
			}
		})
	}
}

// Property: a stack built from factors and means rounded to float32 — what
// a float32 snapshot of an earlier release loads as, widened back to
// float64 — tracks the stack of the exact operands within the error model
// of the float32 path that wrote it. Rounding L perturbs W by ~κ(L)·ε₃₂
// through the inverse, so well-conditioned fixtures sit orders of
// magnitude inside the tight bound and ridge-rescued near-singular ones get
// the κ-scaled loose bound. NaN classification must agree exactly.
func TestWhitenedStack32MatchesF64(t *testing.T) {
	for _, tc := range []struct {
		d, k, n, extra int
		tol            float64
	}{
		{1, 1, 1, 4, 2e-3},
		{2, 3, 9, 4, 2e-3},
		{3, 2, 8, 4, 2e-3},
		{5, 1, 7, 4, 2e-3},
		{8, 4, 16, 8, 2e-3},
		{9, 3, 33, 8, 2e-3},
		{16, 2, 40, 8, 2e-3},
		{17, 2, 31, 8, 2e-3},
		{33, 3, 21, 8, 2e-3},
		{64, 4, 37, 16, 2e-3},
		// Near-singular: rank-deficient sample covariance, ridge-rescued.
		{12, 2, 19, -5, 5e-2},
		{32, 3, 25, -20, 5e-2},
	} {
		t.Run(fmt.Sprintf("d%d_k%d_n%d_extra%d", tc.d, tc.k, tc.n, tc.extra), func(t *testing.T) {
			stack, chols, means := whitenFixtureStack(t, tc.d, tc.k, tc.extra, int64(tc.d*100+tc.n))
			stack32 := NewWhitenedStack(tc.d)
			for f, ch := range chols {
				ch32, err := CholeskyFromFactor(NewDenseData(tc.d, tc.d, roundTo32(ch.L().Data)))
				if err != nil {
					t.Fatalf("factor %d: rounded factor rejected: %v", f, err)
				}
				stack32.AddFactor(ch32, roundTo32(means[f]))
			}
			rng := rand.New(rand.NewSource(int64(tc.n)))
			z := NewDense(tc.n, tc.d)
			for i := range z.Data {
				z.Data[i] = 2 * rng.NormFloat64()
			}
			q64 := make([]float64, tc.n*tc.k)
			stack.MahalanobisInto(q64, z, new(WhitenScratch))
			q32 := make([]float64, tc.n*tc.k)
			stack32.MahalanobisInto(q32, z, new(WhitenScratch))
			for i := range q64 {
				if rel := math.Abs(q32[i]-q64[i]) / (1 + math.Abs(q64[i])); rel > tc.tol || math.IsNaN(q32[i]) != math.IsNaN(q64[i]) {
					t.Fatalf("dst[%d]: f32-rounded %v vs f64 %v (rel %g > %g)", i, q32[i], q64[i], rel, tc.tol)
				}
			}
		})
	}
}

// roundTo32 returns v rounded to float32 and widened back, as gda.Load
// widens a float32 snapshot.
func roundTo32(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(float32(x))
	}
	return out
}

// Property: repeated evaluations and every worker-pool width produce the
// same bits — lane blocks are row-independent and each is computed by
// exactly one shard in a fixed accumulation order. Uses an odd batch size so
// the tail block (padded lanes) is exercised. The stacks of this and the
// next three properties mix dense and low-rank factors.
func TestMahalanobisIntoDeterministic(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	const d, n = 24, 61
	stack, _, _ := whitenFixtureStack(t, d, 3, 8, 3)
	k := addLowRankFactors(t, stack, 2, 4)
	rng := rand.New(rand.NewSource(9))
	z := NewDense(n, d)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	ref := make([]float64, n*k)
	SetParallelism(1)
	stack.MahalanobisInto(ref, z, new(WhitenScratch))
	// One scratch serves every width, so its tiles grow and are reused.
	var ws WhitenScratch
	got := make([]float64, n*k)
	for _, p := range []int{1, 2, 3, 7, 16} {
		SetParallelism(p)
		for rep := 0; rep < 3; rep++ {
			for i := range got {
				got[i] = math.NaN()
			}
			stack.MahalanobisInto(got, z, &ws)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("parallelism %d rep %d: dst[%d] = %v, serial %v", p, rep, i, got[i], ref[i])
				}
			}
		}
	}
}

// Property: a row's result does not depend on which rows share its batch —
// scoring each row alone gives the same bits as scoring them all together,
// so a served row's density does not depend on the rows sent with it.
// Exercises rows landing in every lane position of their block.
func TestMahalanobisIntoBatchComposition(t *testing.T) {
	const d, n = 18, 29
	stack, _, _ := whitenFixtureStack(t, d, 2, 6, 11)
	k := addLowRankFactors(t, stack, 2, 12)
	rng := rand.New(rand.NewSource(13))
	z := NewDense(n, d)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	whole := make([]float64, n*k)
	var ws WhitenScratch // reused across batch shapes
	stack.MahalanobisInto(whole, z, &ws)
	single := make([]float64, k)
	for i := 0; i < n; i++ {
		stack.MahalanobisInto(single, NewDenseData(1, d, z.Row(i)), &ws)
		for f := 0; f < k; f++ {
			if single[f] != whole[i*k+f] {
				t.Fatalf("row %d factor %d: alone %v, in batch %v", i, f, single[f], whole[i*k+f])
			}
		}
	}
	// Also an arbitrary sub-range: rows shifted to different lane offsets.
	sub := NewDenseData(n-5, d, z.Data[3*d:(n-2)*d])
	subDst := make([]float64, (n-5)*k)
	stack.MahalanobisInto(subDst, sub, &ws)
	for i := range subDst {
		if subDst[i] != whole[3*k+i] {
			t.Fatalf("sub-range result %d differs from whole-batch value", i)
		}
	}
}

// Property: non-finite inputs poison exactly the rows that carry them. A NaN
// anywhere in a row makes that row's distances NaN; an Inf makes them
// non-finite; every clean row keeps bits identical to an all-clean batch.
func TestMahalanobisIntoNonFinite(t *testing.T) {
	const d, n = 16, 21
	stack, _, _ := whitenFixtureStack(t, d, 3, 6, 17)
	k := addLowRankFactors(t, stack, 2, 18)
	rng := rand.New(rand.NewSource(19))
	clean := NewDense(n, d)
	for i := range clean.Data {
		clean.Data[i] = rng.NormFloat64()
	}
	ref := make([]float64, n*k)
	stack.MahalanobisInto(ref, clean, new(WhitenScratch))

	dirty := clean.Clone()
	const nanRow, infRow = 4, 13
	dirty.Row(nanRow)[d/2] = math.NaN()
	dirty.Row(infRow)[0] = math.Inf(1)
	got := make([]float64, n*k)
	stack.MahalanobisInto(got, dirty, new(WhitenScratch))
	for i := 0; i < n; i++ {
		for f := 0; f < k; f++ {
			v := got[i*k+f]
			switch i {
			case nanRow:
				if !math.IsNaN(v) {
					t.Fatalf("NaN row factor %d: got %v, want NaN", f, v)
				}
			case infRow:
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					t.Fatalf("row %d factor %d: got finite %v, want non-finite", i, f, v)
				}
			default:
				if v != ref[i*k+f] {
					t.Fatalf("clean row %d factor %d perturbed by non-finite neighbors: %v vs %v",
						i, f, v, ref[i*k+f])
				}
			}
		}
	}
}

// Degenerate shapes: empty batches, empty stacks and zero-dimensional
// factors must be well-defined no-ops (or all-zero distances for d=0).
func TestMahalanobisIntoEdges(t *testing.T) {
	stack, _, _ := whitenFixtureStack(t, 6, 2, 4, 23)
	stack.MahalanobisInto(nil, NewDense(0, 6), new(WhitenScratch)) // n == 0: no-op

	empty := NewWhitenedStack(6) // k == 0
	empty.MahalanobisInto(nil, NewDense(4, 6), new(WhitenScratch))

	zero := NewWhitenedStack(0) // d == 0: every distance is an empty sum
	ch, err := NewCholesky(NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	zero.AddFactor(ch, nil)
	dst := []float64{math.NaN(), math.NaN(), math.NaN()}
	zero.MahalanobisInto(dst, NewDense(3, 0), new(WhitenScratch))
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("d=0 distance[%d] = %v, want 0", i, v)
		}
	}

	mustPanicWhiten(t, "dim mismatch", func() {
		stack.MahalanobisInto(make([]float64, 2*2), NewDense(2, 5), new(WhitenScratch))
	})
	mustPanicWhiten(t, "dst length", func() {
		stack.MahalanobisInto(make([]float64, 3), NewDense(2, 6), new(WhitenScratch))
	})
	mustPanicWhiten(t, "factor dim", func() {
		c, _, err := NewCholeskyRidge(Covariance(NewDense(9, 4), make([]float64, 4), 1e-3), 1e-3, 5)
		if err != nil {
			t.Fatal(err)
		}
		stack.AddFactor(c, make([]float64, 4))
	})
}

func mustPanicWhiten(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// The whitened pass is allocation-free at steady state at either pool width
// — the property the gda scoring paths (and their gated benchmarks)
// inherit. Its job and tiles live in the caller's WhitenScratch, so at pool
// width 1 two collections between warm-up and measurement change nothing.
// At width 2 the 40-row batch is sharded, so the pin covers the parallel
// handoff, whose WaitGroup comes from wgPool: GC stays paused, since a
// cycle empties that pool, and the width skips under the race detector,
// whose sync.Pool drops Puts.
func TestMahalanobisIntoSteadyStateAllocs(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stack, _, _ := whitenFixtureStack(t, 32, 4, 8, 29)
	k := addLowRankFactors(t, stack, 2, 30)
	rng := rand.New(rand.NewSource(31))
	z := NewDense(40, 32)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	dst := make([]float64, 40*k)
	var ws WhitenScratch
	loop := func() { stack.MahalanobisInto(dst, z, &ws) }
	for _, width := range []int{1, 2} {
		if width > 1 && testutil.RaceEnabled {
			t.Skip("wgPool: race-mode sync.Pool drops Puts; the sharded pass's alloc count is not representative")
		}
		SetParallelism(width)
		loop()
		if width == 1 {
			runtime.GC()
			runtime.GC()
		}
		if n := testing.AllocsPerRun(50, loop); n != 0 {
			t.Fatalf("steady-state MahalanobisInto at pool width %d allocates %.1f allocs/op, want 0", width, n)
		}
	}
}

// BenchmarkWhitenMahalanobis is the quadratic-form pass under GDA batch
// scoring: 512 rows × 64 dims against a 4-factor stack, serial and on the
// worker pool.
func BenchmarkWhitenMahalanobis(b *testing.B) {
	stack, _, _ := whitenFixtureStack(b, 64, 4, 16, 37)
	rng := rand.New(rand.NewSource(41))
	z := NewDense(512, 64)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	dst := make([]float64, 512*4)
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			old := Parallelism()
			SetParallelism(mode.par)
			defer SetParallelism(old)
			var ws WhitenScratch
			stack.MahalanobisInto(dst, z, &ws) // grow the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stack.MahalanobisInto(dst, z, &ws)
			}
		})
	}
}
