package mat

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// lowRankStartRows is how many basis rows NewLowRank first makes room for,
// and the width of each block of its coordinates. A fit's rank is often far
// below min(n, d): FACTION's features are the outputs of the network's
// first linear layer, so a component's rank is at most the input width (16
// on the NYSF and RCMNIST streams, 24 on FairFace and FFHQ, 40 on CelebA).
const lowRankStartRows = 16

// LowRankOrthoTol bounds |QQᵀ − I| entrywise for a basis LowRankFromFactors
// accepts. A basis built here is orthonormal to a few ulps; one stored at
// float32 is off by at most float32's unit roundoff, 6e-8, so a basis off by
// more than 1e-6 was not written by this package.
const LowRankOrthoTol = 1e-6

// ErrNonFinite is returned when a low-rank factor meets a NaN or infinite
// value.
var ErrNonFinite = errors.New("mat: non-finite value")

// NewLowRank builds the low-rank form of the covariance of the rows of x
// around mean, ridged by ridge > 0: the basis and coordinates of
// gramSchmidt, and S + ρI as the coordinates' covariance (Covariance around
// zero). It fails on non-finite input and when S + ρI does not factorize.
func NewLowRank(x *Dense, mean []float64, ridge float64) (*LowRank, error) {
	if len(mean) != x.Cols {
		panic(fmt.Sprintf("mat: low-rank mean length %d != cols %d", len(mean), x.Cols))
	}
	if !(ridge > 0) || math.IsInf(ridge, 1) {
		return nil, fmt.Errorf("mat: low-rank ridge %g, want finite and > 0", ridge)
	}
	basis, y, err := gramSchmidt(x, mean)
	if err != nil {
		return nil, err
	}
	ch, err := NewCholesky(Covariance(y, make([]float64, y.Cols), ridge))
	if err != nil {
		return nil, err
	}
	return &LowRank{basis: basis, chol: ch, ridge: ridge}, nil
}

// gramSchmidt returns Q, an r×d orthonormal basis of the rows of x centred
// on mean, and the n×r coordinates of the centred rows in it. It runs
// classical Gram–Schmidt with a second orthogonalization pass, one centred
// row at a time in row order; a row whose remainder falls below
// lowRankDropTol of its norm adds no basis vector. A row's coordinates are
// the two passes' coefficients plus, for a row that adds a vector, the
// vector's norm. It fails on a non-finite row.
//
// With the assembly kernels on, it also keeps q4, a copy of the basis
// stored four rows interleaved (group g holds rows 4g to 4g+3, column by
// column) as it grows, for project's dot products.
func gramSchmidt(x *Dense, mean []float64) (basis, coords *Dense, err error) {
	n, d := x.Rows, x.Cols
	maxR := min(n, d)
	vec := useAsm
	// q and q4 first have room for lowRankStartRows basis rows and grow
	// once, to maxR rows, if the basis outgrows that. q is not nil even at
	// rank 0: a whitened stack takes a nil basis for a dense factor.
	startRows := min(maxR, lowRankStartRows)
	q := make([]float64, 0, startRows*d)
	var q4 []float64
	if vec {
		q4 = make([]float64, 0, (startRows+3)&^3*d)
	}
	// c holds the rows' coordinates in blocks of bw basis rows, a block
	// opened as the basis reaches its first row: block k, of width w (bw,
	// or what maxR leaves for the last), holds Q_{k·bw+j}·c_i at
	// c[k][i·w+j]. So the coordinates take n·r floats rounded up to a
	// whole block, never more than n·maxR, and nothing is copied. The
	// block list starts on the stack.
	const bw = lowRankStartRows
	var cBlocks [16][]float64
	c := cBlocks[:0]
	v := make([]float64, d)
	a := make([]float64, (maxR+3)&^3) // project may fill a whole group
	for i := 0; i < n; i++ {
		for k, z := range x.Row(i) {
			v[k] = z - mean[k]
		}
		norm0 := Dot(v, v)
		if math.IsNaN(norm0) || math.IsInf(norm0, 0) {
			return nil, nil, fmt.Errorf("%w in row %d", ErrNonFinite, i)
		}
		r := len(q) / d
		for pass := 0; pass < 2; pass++ {
			project(a[:r], q, q4, v, vec)
			for k, blk := range c {
				w := len(blk) / n
				ci := blk[i*w : (i+1)*w]
				for j, s := range a[k*bw : min(r, (k+1)*bw)] {
					ci[j] += s
				}
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
		if r%bw == 0 {
			c = append(c, make([]float64, n*min(bw, maxR-r)))
		}
		blk := c[r/bw]
		blk[i*(len(blk)/n)+r%bw] = norm
		if r == startRows {
			q = slices.Grow(q, (maxR-r)*d)
		}
		for _, z := range v {
			q = append(q, z/norm)
		}
		if vec {
			if r == startRows {
				q4 = slices.Grow(q4, ((maxR+3)&^3-r)*d)
			}
			if r%4 == 0 {
				q4 = append(q4, make([]float64, 4*d)...) // a new group
			}
			g := q4[r/4*4*d:]
			for k, z := range q[r*d:] {
				g[4*k+r%4] = z
			}
		}
	}
	r := len(q) / d
	coords = NewDense(n, r)
	for i := 0; i < n; i++ {
		for k, blk := range c {
			w := len(blk) / n
			copy(coords.Row(i)[k*bw:], blk[i*w:(i+1)*w])
		}
	}
	return NewDenseData(r, d, q), coords, nil
}

// project sets a[j] = Q_j·v for every basis row j < len(a), then subtracts
// Σ_j a[j]·Q_j from v: one classical Gram–Schmidt pass. Each a[j] is a dot
// product from +0 in ascending column order: four rows per pass over v in
// dot4, or, with vec, every group of four at once in dotGroupsAVX over q4,
// the basis stored four rows interleaved (a's capacity must reach the next
// multiple of 4). The subtraction runs four basis rows at a time
// (subRows4), then the rows left over one at a time.
func project(a, basis, q4, v []float64, vec bool) {
	r, d := len(a), len(v)
	if vec {
		if g := (r + 3) / 4; g > 0 {
			dotGroupsAVX(a[:4*g], q4[:4*d*g], v, g)
		}
	} else {
		j := 0
		for ; j+4 <= r; j += 4 {
			a[j], a[j+1], a[j+2], a[j+3] = dot4(basis[j*d:][:d], basis[(j+1)*d:][:d], basis[(j+2)*d:][:d], basis[(j+3)*d:][:d], v)
		}
		for ; j < r; j++ {
			a[j] = Dot(basis[j*d:(j+1)*d], v)
		}
	}
	j := 0
	for ; j+4 <= r; j += 4 {
		subRows4(v, basis[j*d:(j+4)*d], a[j], a[j+1], a[j+2], a[j+3])
	}
	for ; j < r; j++ {
		AxpyVec(v, -a[j], basis[j*d:(j+1)*d])
	}
}

// subRows4 computes v[c] −= ((a0·q0[c] + a1·q1[c]) + a2·q2[c]) + a3·q3[c]
// for every c, where q holds the rows q0 to q3, each len(v) long, back to
// back: in subRows4AVX for whole groups of four elements when the assembly
// kernels are on, with the sum grouped as written either way.
func subRows4(v, q []float64, a0, a1, a2, a3 float64) {
	d := len(v)
	q0, q1, q2, q3 := q[:d], q[d:2*d], q[2*d:3*d], q[3*d:4*d]
	c := 0
	if n := d &^ 3; useAsm && n > 0 {
		subRows4AVX(v[:n], q, d, a0, a1, a2, a3)
		c = n
	}
	for ; c < d; c++ {
		v[c] -= a0*q0[c] + a1*q1[c] + a2*q2[c] + a3*q3[c]
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
