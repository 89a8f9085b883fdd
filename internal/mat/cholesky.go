package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a matrix
// that is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l *Dense // lower triangular, upper part zero
}

// NewCholesky factorizes the SPD matrix a, reading only its lower triangle.
// The input is not modified.
//
// The factor is built one column at a time (left-looking): pivot j first,
// then the entries below it four rows per pass, so four independent
// accumulator chains share each read of row j. Every entry is
// A[i,j] − Σ_{k<j} L[i,k]·L[j,k] with k ascending, whatever the loop order,
// and the pivots are checked in ascending order, so the factor bits and the
// first failing pivot do not depend on the traversal.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	l := NewDense(n, n)
	ad, ld := a.Data, l.Data
	for j := 0; j < n; j++ {
		lj := ld[j*n : j*n+j]
		sum := ad[j*n+j]
		for _, v := range lj {
			sum -= v * v
		}
		if sum <= 0 || math.IsNaN(sum) {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, sum)
		}
		piv := math.Sqrt(sum)
		ld[j*n+j] = piv
		i := j + 1
		for ; i+4 <= n; i += 4 {
			r0 := ld[i*n:][:len(lj)]
			r1 := ld[(i+1)*n:][:len(lj)]
			r2 := ld[(i+2)*n:][:len(lj)]
			r3 := ld[(i+3)*n:][:len(lj)]
			s0, s1, s2, s3 := ad[i*n+j], ad[(i+1)*n+j], ad[(i+2)*n+j], ad[(i+3)*n+j]
			for k, v := range lj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			ld[i*n+j] = s0 / piv
			ld[(i+1)*n+j] = s1 / piv
			ld[(i+2)*n+j] = s2 / piv
			ld[(i+3)*n+j] = s3 / piv
		}
		for ; i < n; i++ {
			ri := ld[i*n:][:len(lj)]
			s := ad[i*n+j]
			for k, v := range lj {
				s -= ri[k] * v
			}
			ld[i*n+j] = s / piv
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// NewCholeskyRidge factorizes a, retrying with geometrically growing diagonal
// ridge when a is numerically indefinite (as happens for near-degenerate
// covariance estimates from few samples). It returns the factorization and
// the ridge that was finally added (0 when none was needed).
func NewCholeskyRidge(a *Dense, initialRidge float64, maxAttempts int) (*Cholesky, float64, error) {
	ch, err := NewCholesky(a)
	if err == nil {
		return ch, 0, nil
	}
	ridge := initialRidge
	if ridge <= 0 {
		ridge = 1e-8
	}
	work := a.Clone()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		work.CopyFrom(a)
		for i := 0; i < a.Rows; i++ {
			work.Data[i*a.Cols+i] += ridge
		}
		if ch, err = NewCholesky(work); err == nil {
			return ch, ridge, nil
		}
		ridge *= 10
	}
	return nil, ridge, fmt.Errorf("mat: cholesky failed after %d ridge attempts: %w", maxAttempts, err)
}

// CholeskyFromFactor reconstructs a Cholesky from a previously computed
// lower-triangular factor L (as returned by L()). It validates shape,
// strictly positive diagonal and zero upper triangle. Used by persistence.
func CholeskyFromFactor(l *Dense) (*Cholesky, error) {
	if l.Rows != l.Cols {
		return nil, fmt.Errorf("mat: factor is %dx%d, want square", l.Rows, l.Cols)
	}
	n := l.Rows
	for i := 0; i < n; i++ {
		d := l.Data[i*n+i]
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("%w: factor diagonal %d = %g", ErrNotSPD, i, d)
		}
		for j := i + 1; j < n; j++ {
			if l.Data[i*n+j] != 0 {
				return nil, fmt.Errorf("mat: factor has nonzero upper element (%d,%d)", i, j)
			}
		}
	}
	return &Cholesky{n: n, l: l.Clone()}, nil
}

// Size returns the dimension of the factorized matrix.
func (c *Cholesky) Size() int { return c.n }

// L returns the lower-triangular factor (shared storage; do not modify).
func (c *Cholesky) L() *Dense { return c.l }

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.Data[i*c.n+i])
	}
	return 2 * s
}
