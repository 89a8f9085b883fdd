package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"faction/internal/testutil"
)

// whitenFixtureStack builds a K-factor whitened stack at width T from random
// SPD covariances (sampled with d+extra rows; extra < 0 yields a
// rank-deficient sample covariance that only a ridge rescue makes
// factorizable — the near-singular regime). Returns the stack plus the raw
// factors and means for solve-path reference evaluation. The factors and
// means depend only on the seed, so stacks of both widths built from one seed
// whiten identical inputs.
func whitenFixtureStack[T float32 | float64](t testing.TB, d, k int, extra int, seed int64) (*WhitenedStack[T], []*Cholesky, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	stack := NewWhitenedStack[T](d)
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
		stack, chols, _ := whitenFixtureStack[float64](t, d, 1, 5, int64(d))
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
			stack, chols, means := whitenFixtureStack[float64](t, tc.d, tc.k, tc.extra, int64(tc.d*100+tc.n))
			rng := rand.New(rand.NewSource(int64(tc.n)))
			z := NewDense(tc.n, tc.d)
			for i := range z.Data {
				z.Data[i] = 2 * rng.NormFloat64()
			}
			dst := make([]float64, tc.n*tc.k)
			stack.MahalanobisInto(dst, z)
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

// Property: the float32 stack tracks the float64 stack within the error
// model of DESIGN.md §15 — the f32 matvec contributes ~√d·ε₃₂ relative
// error, amplified by the factor's conditioning (rounding L to f32 perturbs W
// by ~κ(L)·ε₃₂). Well-conditioned fixtures sit orders of magnitude inside the
// tight bound; ridge-rescued near-singular fixtures get the κ-scaled loose
// bound. NaN classification must agree exactly.
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
		{17, 2, 31, 8, 2e-3}, // d and n both off the 16-lane grid
		{33, 3, 21, 8, 2e-3},
		{64, 4, 37, 16, 2e-3},
		// Near-singular: rank-deficient sample covariance, ridge-rescued. The
		// f32 rounding of L is magnified by κ(L) ≈ √κ(Σ) through the inverse.
		{12, 2, 19, -5, 5e-2},
		{32, 3, 25, -20, 5e-2},
	} {
		t.Run(fmt.Sprintf("d%d_k%d_n%d_extra%d", tc.d, tc.k, tc.n, tc.extra), func(t *testing.T) {
			seed := int64(tc.d*100 + tc.n)
			stack, _, _ := whitenFixtureStack[float64](t, tc.d, tc.k, tc.extra, seed)
			stack32, _, _ := whitenFixtureStack[float32](t, tc.d, tc.k, tc.extra, seed)
			rng := rand.New(rand.NewSource(int64(tc.n)))
			z := NewDense(tc.n, tc.d)
			for i := range z.Data {
				z.Data[i] = 2 * rng.NormFloat64()
			}
			q64 := make([]float64, tc.n*tc.k)
			stack.MahalanobisInto(q64, z)
			q32 := make([]float64, tc.n*tc.k)
			stack32.MahalanobisInto(q32, z)
			for i := range q64 {
				if rel := math.Abs(q32[i]-q64[i]) / (1 + math.Abs(q64[i])); rel > tc.tol || math.IsNaN(q32[i]) != math.IsNaN(q64[i]) {
					t.Fatalf("dst[%d]: f32 %v vs f64 %v (rel %g > %g)", i, q32[i], q64[i], rel, tc.tol)
				}
			}
		})
	}
}

// Property: the float32 whitening is a deterministic function of the
// float32-rounded factor and mean bits. Rebuilding the stack from factors and
// means that went through a float32 round trip — exactly what loading an f32
// snapshot payload does — reproduces W and m̃ bit for bit, because AddFactor
// rounds its inputs to the stack's width before deriving anything.
func TestWhitenedStack32RoundTripBits(t *testing.T) {
	for _, d := range []int{1, 3, 8, 17, 32} {
		stack32, chols, means := whitenFixtureStack[float32](t, d, 2, 6, int64(d*7+1))
		reload := NewWhitenedStack[float32](d)
		for f := 0; f < 2; f++ {
			lw := make([]float64, d*d)
			for i, v := range chols[f].L().Data {
				lw[i] = float64(float32(v))
			}
			ch, err := CholeskyFromFactor(NewDenseData(d, d, lw))
			if err != nil {
				t.Fatalf("d=%d factor %d: rounded factor rejected: %v", d, f, err)
			}
			mw := make([]float64, d)
			for i, v := range means[f] {
				mw[i] = float64(float32(v))
			}
			reload.AddFactor(ch, mw)
		}
		for f := 0; f < 2; f++ {
			for i, v := range stack32.Factor(f) {
				if reload.Factor(f)[i] != v {
					t.Fatalf("d=%d factor %d: W32[%d] differs after f32 round trip", d, f, i)
				}
			}
			for i, v := range stack32.WhitenedMean(f) {
				if reload.WhitenedMean(f)[i] != v {
					t.Fatalf("d=%d factor %d: m̃32[%d] differs after f32 round trip", d, f, i)
				}
			}
		}
	}
}

// Property: repeated evaluations and every worker-pool width produce the
// same bits at either width — lane blocks are row-independent and each is
// computed by exactly one shard in a fixed accumulation order. Uses an odd
// batch size so the tail block (padded lanes) is exercised.
func TestMahalanobisIntoDeterministic(t *testing.T) { testWhitenDeterministic[float64](t) }

func TestWhitenedStack32Deterministic(t *testing.T) { testWhitenDeterministic[float32](t) }

func testWhitenDeterministic[T float32 | float64](t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	const d, k, n = 24, 3, 61
	stack, _, _ := whitenFixtureStack[T](t, d, k, 8, 3)
	rng := rand.New(rand.NewSource(9))
	z := NewDense(n, d)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	ref := make([]float64, n*k)
	SetParallelism(1)
	stack.MahalanobisInto(ref, z)
	got := make([]float64, n*k)
	for _, p := range []int{1, 2, 3, 7, 16} {
		SetParallelism(p)
		for rep := 0; rep < 3; rep++ {
			for i := range got {
				got[i] = math.NaN()
			}
			stack.MahalanobisInto(got, z)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("parallelism %d rep %d: dst[%d] = %v, serial %v", p, rep, i, got[i], ref[i])
				}
			}
		}
	}
}

// Property: a row's result does not depend on which rows share its batch —
// scoring each row alone gives the same bits as scoring them all together
// (the batching bit-identity the serving layer's request coalescer relies
// on). Exercises rows landing in every lane position of their block, at the
// 8-lane and the 16-lane block width.
func TestMahalanobisIntoBatchComposition(t *testing.T) { testWhitenBatchComposition[float64](t, 29) }

func TestWhitenedStack32BatchComposition(t *testing.T) { testWhitenBatchComposition[float32](t, 37) }

func testWhitenBatchComposition[T float32 | float64](t *testing.T, n int) {
	const d, k = 18, 2
	stack, _, _ := whitenFixtureStack[T](t, d, k, 6, 11)
	rng := rand.New(rand.NewSource(13))
	z := NewDense(n, d)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	whole := make([]float64, n*k)
	stack.MahalanobisInto(whole, z)
	single := make([]float64, k)
	for i := 0; i < n; i++ {
		stack.MahalanobisInto(single, NewDenseData(1, d, z.Row(i)))
		for f := 0; f < k; f++ {
			if single[f] != whole[i*k+f] {
				t.Fatalf("row %d factor %d: alone %v, in batch %v", i, f, single[f], whole[i*k+f])
			}
		}
	}
	// Also an arbitrary sub-range: rows shifted to different lane offsets.
	sub := NewDenseData(n-5, d, z.Data[3*d:(n-2)*d])
	subDst := make([]float64, (n-5)*k)
	stack.MahalanobisInto(subDst, sub)
	for i := range subDst {
		if subDst[i] != whole[3*k+i] {
			t.Fatalf("sub-range result %d differs from whole-batch value", i)
		}
	}
}

// Property: non-finite inputs poison exactly the rows that carry them. A NaN
// anywhere in a row makes that row's distances NaN; an Inf makes them
// non-finite; every clean row keeps bits identical to an all-clean batch.
func TestMahalanobisIntoNonFinite(t *testing.T) { testWhitenNonFinite[float64](t, 21, -1) }

// At float32 the suite adds a value finite in float64 but beyond float32
// range: tile packing overflows it to ±Inf, which must stay confined to its
// row.
func TestWhitenedStack32NonFinite(t *testing.T) { testWhitenNonFinite[float32](t, 39, 22) }

// testWhitenNonFinite poisons rows 4 (NaN) and 13 (+Inf) of an n-row batch,
// and row overflowRow with 1e300 unless it is negative.
func testWhitenNonFinite[T float32 | float64](t *testing.T, n, overflowRow int) {
	const d, k = 16, 3
	stack, _, _ := whitenFixtureStack[T](t, d, k, 6, 17)
	rng := rand.New(rand.NewSource(19))
	clean := NewDense(n, d)
	for i := range clean.Data {
		clean.Data[i] = rng.NormFloat64()
	}
	ref := make([]float64, n*k)
	stack.MahalanobisInto(ref, clean)

	dirty := clean.Clone()
	const nanRow, infRow = 4, 13
	dirty.Row(nanRow)[d/2] = math.NaN()
	dirty.Row(infRow)[0] = math.Inf(1)
	if overflowRow >= 0 {
		dirty.Row(overflowRow)[d-1] = 1e300 // finite in f64, Inf in f32
	}
	got := make([]float64, n*k)
	stack.MahalanobisInto(got, dirty)
	for i := 0; i < n; i++ {
		for f := 0; f < k; f++ {
			v := got[i*k+f]
			switch i {
			case nanRow:
				if !math.IsNaN(v) {
					t.Fatalf("NaN row factor %d: got %v, want NaN", f, v)
				}
			case infRow, overflowRow:
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
// factors must be well-defined no-ops (or all-zero distances for d=0), at
// either width.
func TestMahalanobisIntoEdges(t *testing.T) { testWhitenEdges[float64](t) }

func TestWhitenedStack32Edges(t *testing.T) { testWhitenEdges[float32](t) }

func testWhitenEdges[T float32 | float64](t *testing.T) {
	stack, _, _ := whitenFixtureStack[T](t, 6, 2, 4, 23)
	stack.MahalanobisInto(nil, NewDense(0, 6)) // n == 0: no-op

	empty := NewWhitenedStack[T](6) // k == 0
	empty.MahalanobisInto(nil, NewDense(4, 6))

	zero := NewWhitenedStack[T](0) // d == 0: every distance is an empty sum
	ch, err := NewCholesky(NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	zero.AddFactor(ch, nil)
	dst := []float64{math.NaN(), math.NaN(), math.NaN()}
	zero.MahalanobisInto(dst, NewDense(3, 0))
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("d=0 distance[%d] = %v, want 0", i, v)
		}
	}

	mustPanicWhiten(t, "dim mismatch", func() {
		stack.MahalanobisInto(make([]float64, 2*2), NewDense(2, 5))
	})
	mustPanicWhiten(t, "dst length", func() {
		stack.MahalanobisInto(make([]float64, 3), NewDense(2, 6))
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

// The whitened pass is allocation-free at steady state at either element
// width and at either pool width — the property the pooled gda scoring paths
// (and their gated benchmarks) inherit. At pool width 2 the 40-row batch is
// sharded, so the pin covers the parallel handoff. GC is paused because a
// cycle empties the job, tile and WaitGroup pools, and their refill would be
// charged to the pass.
func TestMahalanobisIntoSteadyStateAllocs(t *testing.T) { testWhitenSteadyStateAllocs[float64](t) }

func TestWhitenedStack32SteadyStateAllocs(t *testing.T) { testWhitenSteadyStateAllocs[float32](t) }

func testWhitenSteadyStateAllocs[T float32 | float64](t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := Parallelism()
	defer SetParallelism(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stack, _, _ := whitenFixtureStack[T](t, 32, 4, 8, 29)
	rng := rand.New(rand.NewSource(31))
	z := NewDense(40, 32)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	dst := make([]float64, 40*4)
	loop := func() { stack.MahalanobisInto(dst, z) }
	for _, width := range []int{1, 2} {
		SetParallelism(width)
		loop()
		if n := testing.AllocsPerRun(50, loop); n != 0 {
			t.Fatalf("steady-state %T MahalanobisInto at pool width %d allocates %.1f allocs/op, want 0", stack, width, n)
		}
	}
}

// BenchmarkWhitenMahalanobis is the quadratic-form pass under GDA batch
// scoring: 512 rows × 64 dims against a 4-factor stack, serial and on the
// worker pool.
func BenchmarkWhitenMahalanobis(b *testing.B) { benchWhitenMahalanobis[float64](b) }

// BenchmarkWhitenMahalanobis32 is the same pass on the float32 stack.
func BenchmarkWhitenMahalanobis32(b *testing.B) { benchWhitenMahalanobis[float32](b) }

func benchWhitenMahalanobis[T float32 | float64](b *testing.B) {
	stack, _, _ := whitenFixtureStack[T](b, 64, 4, 16, 37)
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
			stack.MahalanobisInto(dst, z) // refill the pools the pre-run GC emptied
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stack.MahalanobisInto(dst, z)
			}
		})
	}
}
