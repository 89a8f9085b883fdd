package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// reluRows returns n rows of ReLU-style features at dimension d: a shared
// offset per column, a fifth of the columns dead, and half the remaining
// entries clipped to zero — the shape of the network's penultimate layer.
func reluRows(rng *rand.Rand, n, d int, shift float64) *Dense {
	x := NewDense(n, d)
	offset := make([]float64, d)
	for c := range offset {
		offset[c] = rng.NormFloat64()
	}
	for c := 0; c < d; c++ {
		if c%5 == 4 {
			continue // dead column
		}
		for i := 0; i < n; i++ {
			x.Data[i*d+c] = math.Max(0, offset[c]+rng.NormFloat64()+shift)
		}
	}
	return x
}

// denseReference is the dense form the low-rank one replaces: the ridged
// covariance of the rows, its Cholesky factor and log-determinant.
func denseReference(t testing.TB, x *Dense, mean []float64, ridge float64) *Cholesky {
	t.Helper()
	ch, err := NewCholesky(Covariance(x, mean, ridge))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// lowRankTol is the relative agreement of the low-rank Mahalanobis distance
// and log-determinant with the dense reference. Both sides solve the same
// ill-conditioned system — at ρ = 1e-6 the covariance's condition number
// reaches ~1e8, so the dense solve alone is good to ~1e-8 — and the worst
// case over these fixtures measured 7e-11.
const lowRankTol = 1e-8

func relDiff(got, want float64) float64 { return math.Abs(got-want) / (1 + math.Abs(want)) }

// Property: the low-rank form reproduces the dense density within lowRankTol
// on the training rows, on fresh rows from the same distribution and on
// shifted rows, across widths up to the paper's d = 512 and component sizes
// from a handful of rows to d/2; its basis is orthonormal and has one row
// fewer than the component (centred rows sum to zero).
func TestLowRankMatchesDenseReference(t *testing.T) {
	const ridge = 1e-6
	for _, tc := range []struct{ n, d int }{
		{2, 3}, {5, 16}, {12, 16}, {20, 64}, {33, 40}, {9, 512}, {75, 512}, {188, 512},
	} {
		t.Run(fmt.Sprintf("n%d_d%d", tc.n, tc.d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n*1000 + tc.d)))
			x := reluRows(rng, tc.n, tc.d, 0)
			mean := MeanCols(x)
			f, err := NewLowRank(x, mean, ridge)
			if err != nil {
				t.Fatal(err)
			}
			if f.Rank() != tc.n-1 {
				t.Fatalf("rank %d, want %d", f.Rank(), tc.n-1)
			}
			checkOrthonormal(t, f.Basis(), 1e-12)
			ref := denseReference(t, x, mean, ridge)
			if rel := relDiff(f.LogDet(), ref.LogDet()); rel > lowRankTol {
				t.Fatalf("log-det %v, dense %v (rel %g)", f.LogDet(), ref.LogDet(), rel)
			}
			stack := NewWhitenedStack(tc.d)
			stack.AddLowRank(f, mean)
			for _, probe := range []struct {
				name string
				z    *Dense
			}{
				{"training", x},
				{"fresh", reluRows(rng, 17, tc.d, 0)},
				{"shifted", reluRows(rng, 9, tc.d, 2)},
			} {
				got := make([]float64, probe.z.Rows)
				stack.MahalanobisInto(got, probe.z)
				for i, g := range got {
					want := mahalanobisSolve(ref, probe.z.Row(i), mean)
					if rel := relDiff(g, want); rel > lowRankTol {
						t.Fatalf("%s row %d: low rank %v, dense %v (rel %g)", probe.name, i, g, want, rel)
					}
				}
			}
		})
	}
}

func checkOrthonormal(t *testing.T, q *Dense, tol float64) {
	t.Helper()
	g := MulTB(q, q)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if dev := math.Abs(g.Data[i*g.Cols+j] - want); dev > tol {
				t.Fatalf("(QQᵀ)[%d,%d] = %v, want %v", i, j, g.Data[i*g.Cols+j], want)
			}
		}
	}
}

// Repeated rows and rows equal to the mean add no basis vector; a component
// whose rows are all equal has rank 0 and scores ‖z − μ‖²/ρ.
func TestLowRankDropsDependentRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := reluRows(rng, 4, 12, 0)
	x := NewDense(9, 12)
	for i := 0; i < 9; i++ {
		copy(x.Row(i), base.Row(i%4))
	}
	mean := MeanCols(x)
	f, err := NewLowRank(x, mean, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != 3 {
		t.Fatalf("rank %d, want 3 (four distinct rows)", f.Rank())
	}
	same := NewDense(5, 6)
	for i := range same.Data {
		same.Data[i] = float64(i % 6)
	}
	mean = MeanCols(same)
	f, err = NewLowRank(same, mean, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != 0 || f.LogDet() != 6*math.Log(0.5) {
		t.Fatalf("identical rows: rank %d, log-det %v", f.Rank(), f.LogDet())
	}
	stack := NewWhitenedStack(6)
	stack.AddLowRank(f, mean)
	z := FromRows([][]float64{{0, 1, 2, 3, 4, 6}})
	dst := make([]float64, 1)
	stack.MahalanobisInto(dst, z)
	if dst[0] != 1/0.5 {
		t.Fatalf("rank-0 distance %v, want %v", dst[0], 1/0.5)
	}
}

func TestLowRankRejectsBadInput(t *testing.T) {
	x := FromRows([][]float64{{1, 2, 3}, {math.NaN(), 0, 1}, {0, 0, 0}})
	if _, err := NewLowRank(x, MeanCols(x), 1e-6); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN row: err = %v, want ErrNonFinite", err)
	}
	x = FromRows([][]float64{{1, 2, 3}, {0, 1, 1}})
	if _, err := NewLowRank(x, MeanCols(x), 0); err == nil {
		t.Fatal("zero ridge: expected error")
	}
	f, err := NewLowRank(x, MeanCols(x), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LowRankFromFactors(f.Basis(), f.L(), f.Ridge()); err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	skewed := f.Basis().Clone()
	skewed.Data[0] *= 1 + 1e-5
	for name, args := range map[string]struct {
		basis, factor *Dense
		ridge         float64
	}{
		"not orthonormal": {skewed, f.L(), 1e-6},
		"rank above dim":  {NewDense(4, 3), Identity(4), 1e-6},
		"factor shape":    {f.Basis(), Identity(2), 1e-6},
		"nan basis":       {FromRows([][]float64{{math.NaN(), 0, 0}}), f.L(), 1e-6},
		"inf ridge":       {f.Basis(), f.L(), math.Inf(1)},
		"negative ridge":  {f.Basis(), f.L(), -1},
		"bad factor":      {f.Basis(), FromRows([][]float64{{-1}}), 1e-6},
	} {
		if _, err := LowRankFromFactors(args.basis, args.factor, args.ridge); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// addLowRankFactors appends count low-rank factors, each fitted on a few
// ReLU rows at the stack's dimension, and returns the new factor count.
func addLowRankFactors(t testing.TB, stack *WhitenedStack, count int, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := stack.Dim()
	for f := 0; f < count; f++ {
		x := reluRows(rng, 2+(f*5)%(d/2+1), d, 0)
		mean := MeanCols(x)
		lr, err := NewLowRank(x, mean, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		stack.AddLowRank(lr, mean)
	}
	return stack.Components()
}

// A low-rank factor whose basis, factor of S + ρI and mean were rounded to
// float32 — what a float32 snapshot of an earlier release loads as — stays
// within the float32 path's tolerance of the exact one.
func TestLowRankStack32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, d = 12, 40
	x := reluRows(rng, n, d, 0)
	mean := MeanCols(x)
	f, err := NewLowRank(x, mean, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	f32, err := LowRankFromFactors(NewDenseData(f.Rank(), d, roundTo32(f.Basis().Data)),
		NewDenseData(f.Rank(), f.Rank(), roundTo32(f.L().Data)), f.Ridge())
	if err != nil {
		t.Fatal(err)
	}
	s64, s32 := NewWhitenedStack(d), NewWhitenedStack(d)
	s64.AddLowRank(f, mean)
	s32.AddLowRank(f32, roundTo32(mean))
	z := reluRows(rng, 21, d, 1)
	q64, q32 := make([]float64, z.Rows), make([]float64, z.Rows)
	s64.MahalanobisInto(q64, z)
	s32.MahalanobisInto(q32, z)
	for i := range q64 {
		if rel := relDiff(q32[i], q64[i]); rel > 2e-3 {
			t.Fatalf("row %d: f32-rounded %v vs f64 %v (rel %g)", i, q32[i], q64[i], rel)
		}
	}
}

// BenchmarkNewLowRank fits one component of protocol-paper's largest size
// at the paper's width.
func BenchmarkNewLowRank(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := reluRows(rng, 188, 512, 0)
	mean := MeanCols(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLowRank(x, mean, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}
