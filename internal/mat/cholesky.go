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

// NewCholesky factorizes the SPD matrix a. The input is not modified.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
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
