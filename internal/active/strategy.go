// Package active defines the query-strategy interface of the active online
// learning protocol and implements the paper's seven comparison baselines
// (Section V-A2): Random, Entropy-AL, margin sampling, QuFUR, DDU, FAL,
// FAL-CUR and Decoupled (D-FA²L). FACTION itself implements the same
// interface in the internal/faction package, so the online runner treats all
// methods uniformly.
package active

import (
	"math"
	"math/rand"
	"sort"

	"faction/internal/data"
	"faction/internal/mat"
	"faction/internal/nn"
)

// Context is everything a strategy may consult when choosing samples:
// the current model, the labeled pool accumulated so far and the remaining
// unlabeled pool of the current task. Derived quantities (probabilities,
// features) are computed lazily and cached, since several strategies need
// the same ones.
type Context struct {
	Model   *nn.Classifier
	Labeled *data.Dataset
	Pool    *data.Dataset
	Rng     *rand.Rand

	poolX     *mat.Dense
	poolProbs *mat.Dense
	poolFeats *mat.Dense
	labFeats  *mat.Dense
}

// PoolMatrix returns the unlabeled pool's feature matrix (cached).
func (c *Context) PoolMatrix() *mat.Dense {
	if c.poolX == nil {
		c.poolX = c.Pool.Matrix()
	}
	return c.poolX
}

// PoolProbs returns the model's class probabilities on the pool (cached).
func (c *Context) PoolProbs() *mat.Dense {
	if c.poolProbs == nil {
		c.ensurePool()
	}
	return c.poolProbs
}

// PoolFeatures returns z = r(x, θ) for the pool (cached).
func (c *Context) PoolFeatures() *mat.Dense {
	if c.poolFeats == nil {
		c.ensurePool()
	}
	return c.poolFeats
}

// ensurePool runs the pool pass in tiles (nn.Classifier.ProbsAndFeatures),
// so it keeps only the probabilities and the features on the heap.
func (c *Context) ensurePool() {
	c.poolProbs, c.poolFeats = c.Model.ProbsAndFeatures(c.PoolMatrix())
}

// LabeledFeatures returns the representation of the labeled pool (cached).
func (c *Context) LabeledFeatures() *mat.Dense {
	if c.labFeats == nil {
		c.labFeats = c.Model.Features(c.Labeled.Matrix())
	}
	return c.labFeats
}

// Strategy selects up to a pool indices per acquisition round (Algorithm 1's
// inner loop runs one SelectBatch per acquisition batch of size A).
type Strategy interface {
	Name() string
	SelectBatch(ctx *Context, a int) []int
}

// Entropy returns the Shannon entropy (nats) of a probability vector.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// topK returns the indices of the k largest scores (all indices when
// k ≥ len). Ties broken by index for determinism.
func topK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// clampA bounds the acquisition size by the pool size.
func clampA(ctx *Context, a int) int {
	if n := ctx.Pool.Len(); a > n {
		return n
	}
	return a
}

// Random selects samples uniformly at random — the naive baseline.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "Random" }

// SelectBatch implements Strategy.
func (Random) SelectBatch(ctx *Context, a int) []int {
	a = clampA(ctx, a)
	if a <= 0 {
		return nil
	}
	perm := ctx.Rng.Perm(ctx.Pool.Len())
	return perm[:a]
}

// EntropyAL is classical uncertainty sampling by prediction entropy
// (Settles 2009): query the a samples the model is least sure about.
type EntropyAL struct{}

// Name implements Strategy.
func (EntropyAL) Name() string { return "Entropy-AL" }

// SelectBatch implements Strategy.
func (EntropyAL) SelectBatch(ctx *Context, a int) []int {
	a = clampA(ctx, a)
	if a <= 0 {
		return nil
	}
	probs := ctx.PoolProbs()
	scores := make([]float64, probs.Rows)
	for i := range scores {
		scores[i] = Entropy(probs.Row(i))
	}
	return topK(scores, a)
}

// Margin is margin sampling (Scheffer et al. 2001): query samples with the
// smallest gap between the top two class probabilities.
type Margin struct{}

// Name implements Strategy.
func (Margin) Name() string { return "Margin" }

// SelectBatch implements Strategy.
func (Margin) SelectBatch(ctx *Context, a int) []int {
	a = clampA(ctx, a)
	if a <= 0 {
		return nil
	}
	probs := ctx.PoolProbs()
	scores := make([]float64, probs.Rows)
	for i := range scores {
		row := probs.Row(i)
		best, second := -1.0, -1.0
		for _, v := range row {
			if v > best {
				best, second = v, best
			} else if v > second {
				second = v
			}
		}
		scores[i] = -(best - second) // smaller margin ⇒ larger score
	}
	return topK(scores, a)
}
