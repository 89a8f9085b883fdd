package nn

import (
	"math/rand"

	"faction/internal/mat"
)

// spectralState implements spectral normalization by power iteration
// (Miyato et al., ICLR 2018), as used for the "soft" Lipschitz constraint in
// Deep Deterministic Uncertainty (Mukhoti et al., CVPR 2023). The weight is
// rescaled to Ŵ = W / max(1, σ₁(W)/c), which caps the layer's spectral norm
// at the coefficient c while leaving already-contractive weights untouched
// — exactly the sensitivity-preserving smoothness the paper's density
// estimator requires (Section IV-B).
type spectralState struct {
	coeff float64
	u     []float64 // left singular-vector estimate, length out
	v     []float64 // right singular-vector estimate, length in
	sigma float64   // latest spectral-norm estimate

	// u and v as out×1 and 1×in matrices (views of the same storage), the
	// operands of powerIteration's two products.
	uCol, uRow, vCol, vRow *mat.Dense
}

func newSpectralState(rng *rand.Rand, in, out int, coeff float64) *spectralState {
	if coeff <= 0 {
		coeff = 1
	}
	s := &spectralState{
		coeff: coeff,
		u:     make([]float64, out),
		v:     make([]float64, in),
	}
	s.uCol, s.uRow = mat.NewDenseData(out, 1, s.u), mat.NewDenseData(1, out, s.u)
	s.vCol, s.vRow = mat.NewDenseData(in, 1, s.v), mat.NewDenseData(1, in, s.v)
	for i := range s.u {
		s.u[i] = rng.NormFloat64()
	}
	normalize(s.u)
	s.sigma = 1
	return s
}

// scale advances one power-iteration step in train mode and returns the
// multiplier applied to W: 1/max(1, σ/coeff). Inference calls reuse the last
// σ estimate without touching the iteration state, keeping them safe for
// concurrent use.
func (s *spectralState) scale(w *mat.Dense, train bool) float64 {
	if train {
		s.powerIteration(w)
	}
	if s.sigma <= s.coeff || s.sigma == 0 {
		return 1
	}
	return s.coeff / s.sigma
}

// powerIteration performs one round of v ← Wᵀu/‖·‖, u ← Wv/‖·‖ and updates
// σ ← uᵀWv. w is in×out, u has length out, v has length in.
func (s *spectralState) powerIteration(w *mat.Dense) {
	// v = W·u (in-dim): v_i = Σ_j w[i][j]·u[j], each a dot product from +0
	// in ascending j — a matrix–vector product, four rows' sums at a time.
	mat.MulInto(s.vCol, w, s.uCol)
	if !normalize(s.v) {
		s.sigma = 0
		return
	}
	// u = Wᵀ·v = vᵀW (out-dim): u_j = Σ_i v_i·w[i][j], each from +0 in
	// ascending i — a 1 × in product, one row update over W's rows.
	mat.MulInto(s.uRow, s.vRow, w)
	// Before normalizing, ‖u‖ = ‖Wᵀv‖ = σ estimate (v is unit).
	s.sigma = mat.Norm2(s.u)
	normalize(s.u)
}

// Sigma returns the most recent spectral-norm estimate.
func (s *spectralState) Sigma() float64 { return s.sigma }

// normalize scales x to unit norm, returning false when ‖x‖ is zero.
func normalize(x []float64) bool {
	n := mat.Norm2(x)
	if n == 0 {
		return false
	}
	mat.ScaleVec(x, 1/n)
	return true
}

// SpectralNormEstimate runs k power iterations on w from a fresh random start
// and returns the estimated largest singular value. Exported for tests and
// diagnostics.
func SpectralNormEstimate(rng *rand.Rand, w *mat.Dense, k int) float64 {
	st := newSpectralState(rng, w.Rows, w.Cols, 1)
	for i := 0; i < k; i++ {
		st.powerIteration(w)
	}
	return st.Sigma()
}
