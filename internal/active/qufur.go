package active

import (
	"faction/internal/mat"
	"faction/internal/rngutil"
)

// QuFUR adapts "Active Online Learning with Hidden Shifting Domains"
// (Chen et al., AISTATS 2021) to this protocol: each sample's uncertainty
// determines its query *probability*, so the method spends more of its
// budget when the model is uncertain (e.g. right after a domain shift) and
// less once the domain is familiar. Uncertainty is the prediction entropy,
// min–max normalized per batch; querying is decided by Bernoulli trials with
// p = min(α·u, 1), scanning samples from most to least uncertain until the
// acquisition batch is filled.
type QuFUR struct {
	// Alpha scales the query probability (the paper's query-rate parameter).
	Alpha float64
}

// Name implements Strategy.
func (QuFUR) Name() string { return "QuFUR" }

// SelectBatch implements Strategy.
func (q QuFUR) SelectBatch(ctx *Context, a int) []int {
	a = clampA(ctx, a)
	if a <= 0 {
		return nil
	}
	alpha := q.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	probs := ctx.PoolProbs()
	scores := make([]float64, probs.Rows)
	for i := range scores {
		scores[i] = Entropy(probs.Row(i))
	}
	picks, _ := BernoulliSelectCount(ctx, NormalizeScores(scores), alpha, a)
	return picks
}

// NormalizeScores min–max normalizes scores into [0,1]. A constant batch
// normalizes to all ones (every sample equally preferred).
func NormalizeScores(scores []float64) []float64 {
	out := make([]float64, len(scores))
	if len(scores) == 0 {
		return out
	}
	lo, hi := mat.MinMax(scores)
	if hi == lo {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	span := hi - lo
	for i, v := range scores {
		out[i] = (v - lo) / span
	}
	return out
}

// BernoulliSelectCount orders candidates by descending weight and fills an
// acquisition batch of size a via Bernoulli trials with probability
// p = min(α·w, 1) per candidate (Algorithm 1 lines 25–36), and reports the
// number of trials performed — the empirical query complexity q_t of
// Theorem 1. It is the shared probabilistic-selection backend of QuFUR and
// FACTION.
func BernoulliSelectCount(ctx *Context, w []float64, alpha float64, a int) ([]int, int) {
	if a <= 0 || len(w) == 0 {
		return nil, 0
	}
	if a > len(w) {
		a = len(w)
	}
	order := topK(w, len(w))
	return bernoulliScan(ctx, order, w, alpha, a)
}

// maxBernoulliSweeps caps the number of passes over the candidate list
// before the remaining slots are filled deterministically, bounding the
// worst case for vanishing query probabilities.
const maxBernoulliSweeps = 1000

// bernoulliScan repeatedly sweeps the candidate order, querying index i with
// probability min(α·w[i], 1), until a samples are chosen (Algorithm 1 lines
// 26–36). When every remaining probability is zero — or after
// maxBernoulliSweeps passes — the remaining slots are filled in order so the
// acquisition-batch contract always holds. The second return value is the
// number of Bernoulli trials performed.
func bernoulliScan(ctx *Context, order []int, w []float64, alpha float64, a int) ([]int, int) {
	chosen := make([]int, 0, a)
	taken := make([]bool, len(w))
	trials := 0
	for sweep := 0; len(chosen) < a && sweep < maxBernoulliSweeps; sweep++ {
		remainingMass := 0.0
		for _, i := range order {
			if len(chosen) >= a {
				break
			}
			if taken[i] {
				continue
			}
			p := alpha * w[i]
			if p > 1 {
				p = 1
			}
			remainingMass += p
			trials++
			if rngutil.Bernoulli(ctx.Rng, p) {
				taken[i] = true
				chosen = append(chosen, i)
			}
		}
		if remainingMass == 0 {
			break
		}
	}
	for _, i := range order { // fill any shortfall deterministically
		if len(chosen) >= a {
			break
		}
		if !taken[i] {
			taken[i] = true
			chosen = append(chosen, i)
		}
	}
	return chosen, trials
}
