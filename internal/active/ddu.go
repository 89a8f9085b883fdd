package active

import (
	"faction/internal/gda"
)

// DDU is the Deep Deterministic Uncertainty baseline (Mukhoti et al., CVPR
// 2023): fit a class-conditional Gaussian mixture on the labeled features and
// query the samples with the lowest density — highest epistemic uncertainty.
// It is FACTION without any fairness machinery: class-only components, no
// Δg term, greedy top-A selection.
type DDU struct {
	// GDA configures covariance estimation; the zero value uses the package
	// defaults.
	GDA gda.Config
}

// Name implements Strategy.
func (DDU) Name() string { return "DDU" }

// SelectBatch implements Strategy.
func (d DDU) SelectBatch(ctx *Context, a int) []int {
	a = clampA(ctx, a)
	if a <= 0 {
		return nil
	}
	est, err := gda.FitClassOnly(ctx.LabeledFeatures(), ctx.Labeled.Labels(), ctx.Labeled.Classes, d.GDA)
	if err != nil {
		// No labeled data yet: fall back to uncertainty sampling.
		return EntropyAL{}.SelectBatch(ctx, a)
	}
	var scores gda.BatchScores
	est.ScoreRows(&scores, 0, ctx.PoolFeatures())
	scores.Scale()
	neg := make([]float64, len(scores.G))
	for i, g := range scores.G {
		neg[i] = -g // lowest density first
	}
	return topK(neg, a)
}
