package gda

import (
	"math"

	"faction/internal/mat"
)

// The batch conveniences and the per-row conditional density the tests
// compare ScoreRows and Scale against. None has a caller outside the tests:
// every consumer fills a BatchScores it owns.

// scoreBatch is one ScoreRows over every row of features and a Scale, into
// fresh storage.
func (e *Estimator) scoreBatch(features *mat.Dense) BatchScores {
	var b BatchScores
	e.ScoreRows(&b, 0, features)
	b.Scale()
	return b
}

// logDensityBatch is log g(z_i) (Eq. 3) for every row of features: one
// ScoreRows into fresh storage, without Scale.
func (e *Estimator) logDensityBatch(features *mat.Dense) []float64 {
	var b BatchScores
	e.ScoreRows(&b, 0, features)
	return b.LogG
}

// logCondDensity returns log g(z|y,s) for one row, or −Inf when the
// component is absent. It runs the whitened kernel on the row alone, so it
// bit-matches the conditional log-pdfs a batch keeps for the row.
func (e *Estimator) logCondDensity(z []float64, y, s int) float64 {
	e.checkDim(z)
	c := e.Component(y, s)
	if c == nil {
		return math.Inf(-1)
	}
	quads := make([]float64, len(e.ordered))
	e.wstack.MahalanobisInto(quads, mat.NewDenseData(1, e.Dim, z))
	return c.logNormBase - 0.5*quads[c.ordIdx]
}
