package nn

import (
	"fmt"
	"math"

	"faction/internal/mat"
)

// lossScratch holds the per-batch buffers of the training loss so that a
// steady-state train step (fixed batch shape) runs allocation-free. The
// returned gradient matrices alias these buffers and are overwritten by the
// next evaluation.
type lossScratch struct {
	grad  *mat.Dense
	vGrad *mat.Dense
	probs []float64
}

func (ls *lossScratch) ensure(n, c int) {
	ls.grad = ensureScratch(ls.grad, n, c, nil)
	if len(ls.probs) != c {
		ls.probs = make([]float64, c)
	}
}

// CrossEntropy computes the mean softmax cross-entropy of logits (n×C)
// against integer labels y, together with the gradient with respect to the
// logits: (softmax − onehot)/n.
func CrossEntropy(logits *mat.Dense, y []int) (loss float64, grad *mat.Dense) {
	grad = mat.NewDense(logits.Rows, logits.Cols)
	loss = crossEntropyInto(grad, logits, y, make([]float64, logits.Cols))
	return loss, grad
}

// crossEntropyInto is CrossEntropy writing into a caller-owned gradient
// matrix (every element is overwritten) with a length-C softmax scratch.
func crossEntropyInto(grad, logits *mat.Dense, y []int, probs []float64) (loss float64) {
	n, c := logits.Rows, logits.Cols
	if len(y) != n {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(y), n))
	}
	if n == 0 {
		return 0
	}
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		yi := y[i]
		if yi < 0 || yi >= c {
			panic(fmt.Sprintf("nn: label %d out of range %d", yi, c))
		}
		mat.Softmax(probs, logits.Row(i))
		p := probs[yi]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
		grow := grad.Row(i)
		for j := 0; j < c; j++ {
			grow[j] = probs[j] * invN
		}
		grow[yi] -= invN
	}
	return loss * invN
}

// FairPenaltyMode selects which relaxed fairness notion v(D,θ) instantiates
// (Definition 1): DDP uses every sample; DEO restricts to positives (y=1).
type FairPenaltyMode int

// Supported instantiations of the relaxed fairness notion.
const (
	ModeDDP FairPenaltyMode = iota
	ModeDEO
)

// FairConfig parameterizes the fairness-regularized loss of Eq. 9.
type FairConfig struct {
	// Mu is the regularization strength μ trading fairness against accuracy.
	Mu float64
	// Eps is the slack ε of the relaxed constraint L_fair ≤ ε.
	Eps float64
	// Mode picks DDP (default) or DEO as the notion v.
	Mode FairPenaltyMode
	// OneSided uses the paper's literal [v]_+ projection; the default is the
	// symmetric hinge max(0, |v|−ε), since DDP violations are two-sided
	// (see DESIGN.md §5).
	OneSided bool
	// IndividualMu enables the Section IV-H individual-fairness consistency
	// penalty (see IndividualPenalty) with this weight; 0 disables it.
	IndividualMu float64
	// IndividualSigma is the similarity-kernel bandwidth σ (default 1).
	IndividualSigma float64
}

// FairPenalty evaluates the linearly relaxed fairness notion of Eq. 1 on a
// batch, instantiating the classifier score as h_i = P(ŷ_i = 1) (the softmax
// probability of the positive class), and its gradient with respect to the
// logits:
//
//	v = (1/n_eff) Σ_i c_i·h_i,  c_i = ((s_i+1)/2 − p̂₁) / (p̂₁(1−p̂₁))
//
// With this choice the coefficients collapse to group means and v becomes the
// soft demographic-parity gap, v = mean_{s=+1} h − mean_{s=−1} h ∈ [−1, 1] —
// the same scale as the reported DDP metric, which keeps the regularization
// gradient commensurate with the cross-entropy gradient (an unbounded score
// such as the raw logit margin makes the penalty overwhelm learning).
//
// For ModeDEO only samples with y_i = 1 contribute and p̂₁ is estimated among
// them. When the contributing samples contain a single sensitive group the
// notion is undefined and (0, nil) is returned.
func FairPenalty(logits *mat.Dense, y, s []int, mode FairPenaltyMode) (v float64, grad *mat.Dense) {
	vGrad := mat.NewDense(logits.Rows, 2)
	v, ok := fairPenaltyInto(vGrad, logits, y, s, mode, make([]float64, 2))
	if !ok {
		return 0, nil
	}
	return v, vGrad
}

// fairPenaltyInto is FairPenalty writing into a caller-owned gradient matrix
// (zeroed here before accumulation). ok reports whether the notion was
// defined on this batch; when false vGrad holds zeros and must be ignored.
func fairPenaltyInto(vGrad, logits *mat.Dense, y, s []int, mode FairPenaltyMode, probs []float64) (v float64, ok bool) {
	n := logits.Rows
	if len(s) != n {
		panic(fmt.Sprintf("nn: %d sensitive values for %d rows", len(s), n))
	}
	if logits.Cols != 2 {
		panic(fmt.Sprintf("nn: fairness penalty needs binary logits, got %d classes", logits.Cols))
	}
	include := func(i int) bool { return true }
	if mode == ModeDEO {
		if len(y) != n {
			panic(fmt.Sprintf("nn: %d labels for %d rows", len(y), n))
		}
		include = func(i int) bool { return y[i] == 1 }
	}
	nEff, nPos := 0, 0
	for i := 0; i < n; i++ {
		if !include(i) {
			continue
		}
		nEff++
		if s[i] == 1 {
			nPos++
		}
	}
	if nEff == 0 || nPos == 0 || nPos == nEff {
		return 0, false
	}
	p1 := float64(nPos) / float64(nEff)
	denom := p1 * (1 - p1)
	vGrad.Zero()
	invN := 1 / float64(nEff)
	for i := 0; i < n; i++ {
		if !include(i) {
			continue
		}
		si := 0.0
		if s[i] == 1 {
			si = 1
		}
		ci := (si - p1) / denom
		mat.Softmax(probs, logits.Row(i))
		h := probs[1] // P(ŷ = 1)
		v += ci * h * invN
		// dh/dlogit1 = h(1−h); dh/dlogit0 = −h(1−h).
		dh := h * (1 - h)
		vGrad.Set(i, 1, ci*dh*invN)
		vGrad.Set(i, 0, -ci*dh*invN)
	}
	return v, true
}

// FairLossResult breaks down one evaluation of the total loss (Eq. 9).
type FairLossResult struct {
	Total float64 // L_CE + μ(L_fair − ε)
	CE    float64 // cross-entropy term
	V     float64 // raw fairness notion v(D,θ)
	Fair  float64 // hinge value L_fair (after slack), ≥ 0
}

// FairRegularizedCE computes L_total = L_CE + μ·(L_fair − ε) (Eq. 8–9) and
// the combined gradient with respect to the logits. With Mu = 0 it reduces
// exactly to CrossEntropy.
func FairRegularizedCE(logits *mat.Dense, y, s []int, cfg FairConfig) (FairLossResult, *mat.Dense) {
	var ls lossScratch
	return ls.fairRegularizedCE(logits, y, s, cfg)
}

// fairRegularizedCE is FairRegularizedCE on reusable scratch: the returned
// gradient aliases ls.grad and is overwritten by the next evaluation.
func (ls *lossScratch) fairRegularizedCE(logits *mat.Dense, y, s []int, cfg FairConfig) (FairLossResult, *mat.Dense) {
	ls.ensure(logits.Rows, logits.Cols)
	ce := crossEntropyInto(ls.grad, logits, y, ls.probs)
	res := FairLossResult{CE: ce, Total: ce}
	if cfg.Mu == 0 {
		return res, ls.grad
	}
	ls.vGrad = ensureScratch(ls.vGrad, logits.Rows, logits.Cols, nil)
	v, ok := fairPenaltyInto(ls.vGrad, logits, y, s, cfg.Mode, ls.probs)
	res.V = v
	if !ok {
		return res, ls.grad
	}
	var hinge, sign float64
	if cfg.OneSided {
		hinge = v - cfg.Eps
		sign = 1
	} else {
		hinge = math.Abs(v) - cfg.Eps
		sign = 1
		if v < 0 {
			sign = -1
		}
	}
	if hinge <= 0 {
		return res, ls.grad
	}
	res.Fair = hinge
	res.Total = ce + cfg.Mu*hinge
	mat.AddScaled(ls.grad, cfg.Mu*sign, ls.vGrad)
	return res, ls.grad
}

// Accuracy returns the fraction of rows whose argmax logit equals the label.
func Accuracy(logits *mat.Dense, y []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	if len(y) != logits.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(y), logits.Rows))
	}
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		if mat.ArgMax(logits.Row(i)) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}
