package mat

import (
	"errors"
	"fmt"
	"math"
)

// LowRank is the exact low-rank form of a ridged sample covariance
// Σ = CᵀC/n + ρI, where C holds n centred rows of dimension d. It keeps Q,
// an r×d orthonormal basis of the rows (r ≤ min(n−1, d)), and L_S, the r×r
// Cholesky factor of S + ρI, where S = Q·CᵀC·Qᵀ/n is the rows' covariance
// in that basis. With v = z − μ and p = Qv, the Woodbury identity and the
// matrix determinant lemma give, exactly,
//
//	vᵀΣ⁻¹v = ‖L_S⁻¹p‖² + ‖v − Qᵀp‖² / ρ
//	log|Σ| = log|S + ρI| + (d − r)·log ρ
//
// so the density needs O(n²·d) to fit and never forms a d×d matrix.
// WhitenedStack.AddLowRank scores it.
type LowRank struct {
	basis *Dense // Q, r×d
	chol  *Cholesky
	ridge float64
}

// lowRankDropTol is the relative size below which a centred row's
// component outside the basis so far counts as rounding: the row adds no
// basis vector. Centred rows sum to zero, so one row of every component
// lands here, and so does a repeated row. A dropped remainder of relative
// size 1e-9 leaves out a variance of at most 1e-18·‖c‖²/n, far below any
// ridge the estimator uses.
const lowRankDropTol = 1e-9

// LowRankOrthoTol bounds |QQᵀ − I| entrywise for a basis LowRankFromFactors
// accepts. A basis built here is orthonormal to a few ulps; one stored at
// float32 is off by at most float32's unit roundoff, 6e-8, so a basis off by
// more than 1e-6 was not written by this package.
const LowRankOrthoTol = 1e-6

// ErrNonFinite is returned when a low-rank factor meets a NaN or infinite
// value.
var ErrNonFinite = errors.New("mat: non-finite value")

// NewLowRank builds the low-rank form of the covariance of the rows of x
// around mean, ridged by ridge > 0. The basis comes from classical
// Gram–Schmidt with a second orthogonalization pass, one centred row at a
// time in row order; a row whose remainder falls below lowRankDropTol of
// its norm adds no basis vector. The rows' coordinates in the basis are the
// two passes' coefficients plus the new vector's norm, and S + ρI is their
// covariance (Covariance around zero). It fails on non-finite input and
// when S + ρI does not factorize.
func NewLowRank(x *Dense, mean []float64, ridge float64) (*LowRank, error) {
	n, d := x.Rows, x.Cols
	if len(mean) != d {
		panic(fmt.Sprintf("mat: low-rank mean length %d != cols %d", len(mean), d))
	}
	if !(ridge > 0) || math.IsInf(ridge, 1) {
		return nil, fmt.Errorf("mat: low-rank ridge %g, want finite and > 0", ridge)
	}
	maxR := min(n, d)
	basis := make([]float64, 0, maxR*d)
	coords := make([]float64, n*maxR) // coords[i·maxR+j] = Q_j·c_i
	v := make([]float64, d)
	a := make([]float64, maxR)
	for i := 0; i < n; i++ {
		for c, z := range x.Row(i) {
			v[c] = z - mean[c]
		}
		norm0 := Dot(v, v)
		if math.IsNaN(norm0) || math.IsInf(norm0, 0) {
			return nil, fmt.Errorf("%w in row %d", ErrNonFinite, i)
		}
		r := len(basis) / d
		ci := coords[i*maxR : i*maxR+r]
		for pass := 0; pass < 2; pass++ {
			project(a[:r], basis, v, d)
			for j, s := range a[:r] {
				ci[j] += s
			}
		}
		if r == maxR {
			continue
		}
		nv := Dot(v, v)
		if nv <= lowRankDropTol*lowRankDropTol*norm0 {
			continue
		}
		norm := math.Sqrt(nv)
		coords[i*maxR+r] = norm
		for _, z := range v {
			basis = append(basis, z/norm)
		}
	}
	r := len(basis) / d
	y := NewDense(n, r)
	for i := 0; i < n; i++ {
		copy(y.Row(i), coords[i*maxR:i*maxR+r])
	}
	ch, err := NewCholesky(Covariance(y, make([]float64, r), ridge))
	if err != nil {
		return nil, err
	}
	return &LowRank{basis: NewDenseData(r, d, basis), chol: ch, ridge: ridge}, nil
}

// project sets a[j] = Q_j·v for every basis row j < len(a), then subtracts
// Σ_j a[j]·Q_j from v: one classical Gram–Schmidt pass. Four basis rows
// share each pass over v.
func project(a, basis, v []float64, d int) {
	r := len(a)
	j := 0
	for ; j+4 <= r; j += 4 {
		q0, q1, q2, q3 := basis[j*d:][:d], basis[(j+1)*d:][:d], basis[(j+2)*d:][:d], basis[(j+3)*d:][:d]
		var s0, s1, s2, s3 float64
		for c, z := range v {
			s0 += q0[c] * z
			s1 += q1[c] * z
			s2 += q2[c] * z
			s3 += q3[c] * z
		}
		a[j], a[j+1], a[j+2], a[j+3] = s0, s1, s2, s3
	}
	for ; j < r; j++ {
		a[j] = Dot(basis[j*d:(j+1)*d], v)
	}
	j = 0
	for ; j+4 <= r; j += 4 {
		q0, q1, q2, q3 := basis[j*d:][:d], basis[(j+1)*d:][:d], basis[(j+2)*d:][:d], basis[(j+3)*d:][:d]
		a0, a1, a2, a3 := a[j], a[j+1], a[j+2], a[j+3]
		for c := range v {
			v[c] -= a0*q0[c] + a1*q1[c] + a2*q2[c] + a3*q3[c]
		}
	}
	for ; j < r; j++ {
		AxpyVec(v, -a[j], basis[j*d:(j+1)*d])
	}
}

// LowRankFromFactors reconstructs a LowRank from a stored basis (r×d) and
// factor of S + ρI (r×r lower triangular), as persistence does. It checks
// r ≤ d, that every value is finite, that the ridge is positive, that the
// factor is a valid Cholesky factor (CholeskyFromFactor), and that the basis
// is orthonormal within LowRankOrthoTol.
func LowRankFromFactors(basis, factor *Dense, ridge float64) (*LowRank, error) {
	r, d := basis.Rows, basis.Cols
	if r > d {
		return nil, fmt.Errorf("mat: low-rank basis has %d rows, more than its dimension %d", r, d)
	}
	if factor.Rows != r {
		return nil, fmt.Errorf("mat: low-rank factor is %dx%d, want %dx%d", factor.Rows, factor.Cols, r, r)
	}
	if !(ridge > 0) || math.IsInf(ridge, 1) {
		return nil, fmt.Errorf("mat: low-rank ridge %g, want finite and > 0", ridge)
	}
	for i, v := range basis.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: basis entry (%d,%d) = %g", ErrNonFinite, i/d, i%d, v)
		}
	}
	for i, v := range factor.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: factor entry (%d,%d) = %g", ErrNonFinite, i/r, i%r, v)
		}
	}
	ch, err := CholeskyFromFactor(factor)
	if err != nil {
		return nil, err
	}
	for j := 0; j < r; j++ {
		qj := basis.Data[j*d : (j+1)*d]
		for k := 0; k <= j; k++ {
			want := 0.0
			if k == j {
				want = 1
			}
			if dev := math.Abs(Dot(qj, basis.Data[k*d:(k+1)*d]) - want); !(dev <= LowRankOrthoTol) {
				return nil, fmt.Errorf("mat: low-rank basis rows %d and %d are %g from orthonormal, more than %g", j, k, dev, LowRankOrthoTol)
			}
		}
	}
	return &LowRank{basis: basis.Clone(), chol: ch, ridge: ridge}, nil
}

// Rank returns r, the number of basis rows.
func (f *LowRank) Rank() int { return f.basis.Rows }

// Dim returns d, the feature dimension.
func (f *LowRank) Dim() int { return f.basis.Cols }

// Ridge returns ρ.
func (f *LowRank) Ridge() float64 { return f.ridge }

// Basis returns Q, r×d (shared storage; do not modify).
func (f *LowRank) Basis() *Dense { return f.basis }

// L returns L_S, the r×r Cholesky factor of S + ρI (shared storage; do not
// modify).
func (f *LowRank) L() *Dense { return f.chol.l }

// LogDet returns log|Σ| = log|S + ρI| + (d − r)·log ρ.
func (f *LowRank) LogDet() float64 {
	return f.chol.LogDet() + float64(f.Dim()-f.Rank())*math.Log(f.ridge)
}
