package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a well-conditioned random SPD matrix A = MᵀM + I.
func randomSPD(rng *rand.Rand, n int) *Dense {
	m := randomDense(rng, n+2, n)
	a := MulTA(m, m)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += 1
	}
	return a
}

// mahalanobisSolve is (x−mean)ᵀ A⁻¹ (x−mean) = ‖L⁻¹(x−mean)‖² by forward
// substitution on the factor, one row at a time: the package's reference for
// the whitened batch kernel.
func mahalanobisSolve(c *Cholesky, x, mean []float64) float64 {
	n, l := c.Size(), c.L().Data
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := x[i] - mean[i]
		for k, v := range l[i*n : i*n+i] {
			sum -= v * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	return Dot(y, y)
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, MulTB(ch.L(), ch.L()), a, 1e-9)
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L = [[2,0],[1,sqrt(2)]]
	if !almostEqual(ch.L().At(0, 0), 2, 1e-12) || !almostEqual(ch.L().At(1, 0), 1, 1e-12) ||
		!almostEqual(ch.L().At(1, 1), math.Sqrt2, 1e-12) {
		t.Fatalf("L = %v", ch.L())
	}
	if !almostEqual(ch.LogDet(), math.Log(8), 1e-12) { // det = 4*3-2*2 = 8
		t.Fatalf("logdet = %g", ch.LogDet())
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	_, err := NewCholesky(a)
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCholesky(NewDense(2, 3)) //nolint:errcheck // panics before returning
}

func TestCholeskyRidgeRecovers(t *testing.T) {
	// Singular matrix: rank 1.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	ch, ridge, err := NewCholeskyRidge(a, 1e-6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ridge <= 0 {
		t.Fatal("expected a positive ridge for singular input")
	}
	if ch.Size() != 2 {
		t.Fatal("size")
	}
}

func TestCholeskyRidgeNoRidgeWhenSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSPD(rng, 4)
	_, ridge, err := NewCholeskyRidge(a, 1e-6, 10)
	if err != nil || ridge != 0 {
		t.Fatalf("ridge = %g, err = %v", ridge, err)
	}
}

func TestCholeskyRidgeGivesUp(t *testing.T) {
	a := FromRows([][]float64{{math.NaN(), 0}, {0, 1}})
	if _, _, err := NewCholeskyRidge(a, 1e-6, 3); err == nil {
		t.Fatal("expected failure on NaN input")
	}
}

func TestMahalanobisIdentity(t *testing.T) {
	ch, err := NewCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	d := mahalanobisSolve(ch, []float64{1, 2, 2}, []float64{0, 0, 0})
	if !almostEqual(d, 9, 1e-12) { // ‖(1,2,2)‖² = 9
		t.Fatalf("mahalanobis = %g", d)
	}
	if mahalanobisSolve(ch, []float64{5, 5, 5}, []float64{5, 5, 5}) != 0 {
		t.Fatal("distance to mean should be 0")
	}
}

// Property: the factor's solve inverts multiplication — for b = A·x,
// bᵀA⁻¹b = xᵀAx — and Mahalanobis is nonnegative, zero exactly at the mean.
func TestCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			b[i] = Dot(a.Row(i), x)
		}
		mean := make([]float64, n)
		if !almostEqual(mahalanobisSolve(ch, b, mean), Dot(x, b), 1e-7) {
			return false
		}
		if mahalanobisSolve(ch, x, x) != 0 {
			return false
		}
		return mahalanobisSolve(ch, x, mean) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomDense(rng, 64, 64)
	y := randomDense(rng, 64, 64)
	dst := NewDense(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkCholesky64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCholeskyFromFactorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 5)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	re, err := CholeskyFromFactor(ch.L())
	if err != nil {
		t.Fatal(err)
	}
	if re.LogDet() != ch.LogDet() {
		t.Fatal("logdet mismatch")
	}
	x := []float64{1, -1, 2, -2, 0.5}
	mean := make([]float64, 5)
	if mahalanobisSolve(re, x, mean) != mahalanobisSolve(ch, x, mean) {
		t.Fatal("mahalanobis mismatch")
	}
	// The reconstruction clones: mutating the source factor must not affect it.
	ch.L().Set(0, 0, 999)
	if re.L().At(0, 0) == 999 {
		t.Fatal("factor storage shared")
	}
}

func TestCholeskyFromFactorRejectsBadInput(t *testing.T) {
	cases := map[string]*Dense{
		"non-square":    NewDense(2, 3),
		"zero diagonal": FromRows([][]float64{{0, 0}, {1, 1}}),
		"upper junk":    FromRows([][]float64{{1, 2}, {0, 1}}),
		"nan diagonal":  FromRows([][]float64{{math.NaN(), 0}, {0, 1}}),
	}
	for name, l := range cases {
		if _, err := CholeskyFromFactor(l); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}
