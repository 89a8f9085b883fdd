package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The fit kernels' earlier loops, kept as bit-identity references. Each
// output element of Covariance, NewCholesky and invLowerInto adds the same
// products in the same order as these, so the results match bit for bit.

// covarianceRef accumulates the lower triangle by rank-1 updates, one sample
// at a time. Its da == 0 skip drops 0 × ±Inf and 0 × NaN terms; on finite
// input a skipped term is ±0 and moves no bit.
func covarianceRef(m *Dense, mean []float64, ridge float64) *Dense {
	d := m.Cols
	cov := NewDense(d, d)
	if m.Rows == 0 {
		for i := 0; i < d; i++ {
			cov.Data[i*d+i] = ridge
		}
		return cov
	}
	diff := make([]float64, d)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range diff {
			diff[j] = row[j] - mean[j]
		}
		for a := 0; a < d; a++ {
			da := diff[a]
			if da == 0 {
				continue
			}
			crow := cov.Data[a*d : a*d+a+1]
			for b, db := range diff[:a+1] {
				crow[b] += da * db
			}
		}
	}
	inv := 1 / float64(m.Rows)
	for a := 0; a < d; a++ {
		for b := 0; b <= a; b++ {
			v := cov.Data[a*d+b] * inv
			cov.Data[a*d+b] = v
			cov.Data[b*d+a] = v
		}
	}
	for i := 0; i < d; i++ {
		cov.Data[i*d+i] += ridge
	}
	return cov
}

// choleskyRef factorizes row by row, each entry one dot product with one
// accumulator chain.
func choleskyRef(a *Dense) (*Dense, error) {
	n := a.Rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			lrow := l.Data[i*n : i*n+j]
			jrow := l.Data[j*n : j*n+j]
			for k, v := range lrow {
				sum -= v * jrow[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, i, sum)
				}
				l.Data[i*n+i] = math.Sqrt(sum)
			} else {
				l.Data[i*n+j] = sum / l.Data[j*n+j]
			}
		}
	}
	return l, nil
}

// invLowerRef inverts the lower-triangular l by column-wise forward
// substitution into the zeroed w.
func invLowerRef(w, l []float64, n int) {
	for col := 0; col < n; col++ {
		for i := col; i < n; i++ {
			sum := 0.0
			if i == col {
				sum = 1.0
			}
			for k := col; k < i; k++ {
				sum -= l[i*n+k] * w[k*n+col]
			}
			w[i*n+col] = sum / l[i*n+i]
		}
	}
}

// diffBits returns the first index where got and want differ in bits, or −1.
func diffBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// Property: over random shapes (d not a multiple of four included), ReLU-style
// zeros, dead columns and three ridges, Covariance, NewCholesky and
// invLowerInto match the reference loops bit for bit, the factorization
// succeeds or fails with the same pivot in the same cases, and AddFactor
// stores the reference inverse of its factor.
func TestFitKernelsMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ridges := []float64{0, 1e-6, 1e-3}
	outcomes := map[bool]int{}
	for c := 0; c < 400; c++ {
		d, n, ridge := 1+rng.Intn(70), 1+rng.Intn(100), ridges[c%len(ridges)]
		name := fmt.Sprintf("case %d (n=%d d=%d ridge=%g)", c, n, d, ridge)
		x := NewDense(n, d)
		for j := 0; j < d; j++ {
			if rng.Intn(5) == 0 {
				continue // dead column
			}
			for i := 0; i < n; i++ {
				x.Data[i*d+j] = math.Max(0, rng.NormFloat64())
			}
		}
		mean := MeanCols(x)
		cov := Covariance(x, mean, ridge)
		if i := diffBits(cov.Data, covarianceRef(x, mean, ridge).Data); i >= 0 {
			t.Fatalf("%s: covariance differs at %d", name, i)
		}

		ch, err := NewCholesky(cov)
		want, wantErr := choleskyRef(cov)
		outcomes[err == nil]++
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: cholesky error %v, reference %v", name, err, wantErr)
		}
		if err != nil {
			var added float64
			if ch, added, err = NewCholeskyRidge(cov, 1e-6, 20); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			work := cov.Clone()
			for i := 0; i < d; i++ {
				work.Data[i*d+i] += added
			}
			if want, err = choleskyRef(work); err != nil {
				t.Fatalf("%s: reference on the ridged matrix: %v", name, err)
			}
		}
		l := ch.L().Data
		if i := diffBits(l, want.Data); i >= 0 {
			t.Fatalf("%s: factor differs at %d", name, i)
		}

		w := make([]float64, d*d)
		invLowerInto(w, l, d)
		wref := make([]float64, d*d)
		invLowerRef(wref, l, d)
		if i := diffBits(w, wref); i >= 0 {
			t.Fatalf("%s: inverse differs at %d", name, i)
		}
		s64 := NewWhitenedStack(d)
		s64.AddFactor(ch, mean)
		if i := diffBits(s64.Factor(0), wref); i >= 0 {
			t.Fatalf("%s: f64 AddFactor differs at %d", name, i)
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("cases cover one outcome only: %d SPD, %d not SPD", outcomes[true], outcomes[false])
	}
}

func BenchmarkCholesky512(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvLower512(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ch, err := NewCholesky(randomSPD(rng, 512))
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, 512*512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invLowerInto(w, ch.L().Data, 512)
	}
}
