package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot")
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("norm2")
	}
}

func TestAxpyScaleSub(t *testing.T) {
	y := []float64{1, 1}
	AxpyVec(y, 2, []float64{3, 4})
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy: %v", y)
	}
	ScaleVec(y, 0.5)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("scale: %v", y)
	}
	d := SubVec([]float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Fatalf("sub: %v", d)
	}
}

func TestSumMean(t *testing.T) {
	if SumVec([]float64{1, 2, 3}) != 6 {
		t.Fatal("sum")
	}
	if MeanVec([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if MeanVec(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestArgMaxArgMin(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if ArgMax(v) != 5 {
		t.Fatalf("argmax = %d", ArgMax(v))
	}
	if ArgMin(v) != 1 {
		t.Fatalf("argmin = %d", ArgMin(v))
	}
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Fatal("empty should be -1")
	}
	// First-on-ties.
	if ArgMax([]float64{2, 2}) != 0 {
		t.Fatal("ties should return first index")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{2, -7, 5})
	if min != -7 || max != 5 {
		t.Fatalf("minmax = %g, %g", min, max)
	}
}

func TestLogSumExpStable(t *testing.T) {
	// Large values would overflow a naive implementation.
	v := []float64{1000, 1000}
	want := 1000 + math.Log(2)
	if !almostEqual(LogSumExp(v), want, 1e-12) {
		t.Fatalf("lse = %g, want %g", LogSumExp(v), want)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("empty lse should be -Inf")
	}
	allNegInf := []float64{math.Inf(-1), math.Inf(-1)}
	if !math.IsInf(LogSumExp(allNegInf), -1) {
		t.Fatal("all -Inf lse should be -Inf")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	logits := []float64{1, 2, 3, 4}
	out := make([]float64, 4)
	Softmax(out, logits)
	if !almostEqual(SumVec(out), 1, 1e-12) {
		t.Fatalf("softmax sum = %g", SumVec(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("softmax should be monotone in logits")
		}
	}
	// Stability with huge logits.
	Softmax(out, []float64{1e4, 1e4, 0, 0})
	if !almostEqual(out[0], 0.5, 1e-9) {
		t.Fatalf("stable softmax = %v", out)
	}
}

func TestSoftmaxAliasing(t *testing.T) {
	v := []float64{0, 0}
	Softmax(v, v)
	if !almostEqual(v[0], 0.5, 1e-12) {
		t.Fatalf("aliased softmax = %v", v)
	}
}

// Property: softmax output is a probability vector invariant to constant
// shifts of the logits.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = r.NormFloat64() * 5
		}
		a := make([]float64, n)
		b := make([]float64, n)
		Softmax(a, logits)
		shift := r.NormFloat64() * 100
		shifted := make([]float64, n)
		for i := range logits {
			shifted[i] = logits[i] + shift
		}
		Softmax(b, shifted)
		sum := 0.0
		for i := range a {
			if a[i] < 0 || a[i] > 1 || !almostEqual(a[i], b[i], 1e-9) {
				return false
			}
			sum += a[i]
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCols(t *testing.T) {
	m := FromRows([][]float64{{1, 10}, {3, 30}})
	mean := MeanCols(m)
	if mean[0] != 2 || mean[1] != 20 {
		t.Fatalf("mean = %v", mean)
	}
	empty := MeanCols(NewDense(0, 3))
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty mean should be 0")
		}
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two points symmetric about the origin on axis 0.
	m := FromRows([][]float64{{1, 0}, {-1, 0}})
	cov := Covariance(m, []float64{0, 0}, 0)
	if !almostEqual(cov.At(0, 0), 1, 1e-12) || cov.At(0, 1) != 0 || cov.At(1, 1) != 0 {
		t.Fatalf("cov = %v", cov)
	}
	// Ridge appears on the diagonal only.
	cov = Covariance(m, []float64{0, 0}, 0.5)
	if !almostEqual(cov.At(0, 0), 1.5, 1e-12) || !almostEqual(cov.At(1, 1), 0.5, 1e-12) {
		t.Fatalf("ridged cov = %v", cov)
	}
}

// Property: covariance matrices are symmetric with nonnegative diagonal.
func TestCovarianceSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		d := 1 + r.Intn(8)
		m := randomDense(r, n, d)
		mean := MeanCols(m)
		cov := Covariance(m, mean, 1e-9)
		for i := 0; i < d; i++ {
			if cov.At(i, i) < 0 {
				return false
			}
			for j := 0; j < i; j++ {
				if !almostEqual(cov.At(i, j), cov.At(j, i), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCovarianceMatchesNaive cross-checks the triangle-accumulated
// implementation against a direct O(n·d²) reference.
func TestCovarianceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n, d := 37, 9
	m := randomDense(rng, n, d)
	mean := MeanCols(m)
	const ridge = 1e-3
	got := Covariance(m, mean, ridge)

	want := NewDense(d, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				want.Data[a*d+b] += (row[a] - mean[a]) * (row[b] - mean[b])
			}
		}
	}
	want.Scale(1 / float64(n))
	for i := 0; i < d; i++ {
		want.Data[i*d+i] += ridge
	}
	matricesEqual(t, got, want, 1e-12)
}

// TestCovarianceNonFiniteIsNaN: every product reaches the sum, so a column
// holding +Inf makes its covariance with a constant column NaN (0 × ∓Inf and
// 0 × NaN terms), as MulTA of the centred rows does.
func TestCovarianceNonFiniteIsNaN(t *testing.T) {
	m := FromRows([][]float64{{math.Inf(1), 1}, {0, 1}, {2, 1}})
	mean := MeanCols(m)
	centred := m.Clone()
	for i := 0; i < centred.Rows; i++ {
		for j, v := range centred.Row(i) {
			centred.Set(i, j, v-mean[j])
		}
	}
	cov, prod := Covariance(m, mean, 0), MulTA(centred, centred)
	for _, ij := range [][2]int{{0, 1}, {1, 0}} {
		if got, want := cov.At(ij[0], ij[1]), prod.At(ij[0], ij[1]); !math.IsNaN(got) || !math.IsNaN(want) {
			t.Fatalf("cov%v = %v, MulTA of the centred rows = %v, want NaN for both", ij, got, want)
		}
	}
	if got := cov.At(1, 1); got != 0 {
		t.Fatalf("cov(1,1) = %v, want 0 for a constant column", got)
	}
}

func BenchmarkCovariance512(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	m := randomDense(rng, 500, 512)
	mean := MeanCols(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Covariance(m, mean, 1e-6)
	}
}
