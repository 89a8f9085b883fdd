package nn

import (
	"fmt"
	"math"
	"math/rand"

	"faction/internal/mat"
)

// Dropout is inverted dropout: during training each activation is zeroed
// with probability Rate and survivors are scaled by 1/(1−Rate), so inference
// passes are the identity. ForceActive keeps the mask on during inference —
// the Monte-Carlo dropout mode used for Bayesian uncertainty estimates (Gal
// et al., ICML 2017; the paper's reference [44]).
type Dropout struct {
	Rate float64
	// ForceActive applies dropout in Infer too (MC-dropout inference).
	ForceActive bool

	rng  *rand.Rand
	mask []bool

	out, dx *mat.Dense // masked-mode scratch (see Layer scratch-reuse contract)
}

// NewDropout creates a dropout layer with the given rate in [0, 1).
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %g outside [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward draws a fresh mask, applies it, and records it for Backward.
func (d *Dropout) Forward(x *mat.Dense) *mat.Dense {
	if d.Rate == 0 {
		d.mask = nil
		return x
	}
	d.out = ensureScratch(d.out, x.Rows, x.Cols, x)
	out := d.out
	out.CopyFrom(x)
	if cap(d.mask) < len(out.Data) {
		d.mask = make([]bool, len(out.Data))
	}
	d.mask = d.mask[:len(out.Data)]
	scale := 1 / (1 - d.Rate)
	for i := range out.Data {
		if d.rng.Float64() < d.Rate {
			d.mask[i] = false
			out.Data[i] = 0
		} else {
			d.mask[i] = true
			out.Data[i] *= scale
		}
	}
	return out
}

// Infer is the identity, which is read-only and safe for concurrent callers.
// With ForceActive set (MC-dropout) it runs the masked Forward instead, which
// mutates layer state and requires external synchronization anyway — the
// arena buys nothing there.
func (d *Dropout) Infer(x *mat.Dense, _ *mat.Arena) *mat.Dense {
	if !d.ForceActive {
		return x
	}
	return d.Forward(x)
}

// Backward routes gradients through the surviving units only.
func (d *Dropout) Backward(gradOut *mat.Dense) *mat.Dense {
	if d.mask == nil {
		return gradOut
	}
	if len(d.mask) != len(gradOut.Data) {
		panic("nn: Dropout Backward shape mismatch with last Forward")
	}
	d.dx = ensureScratch(d.dx, gradOut.Rows, gradOut.Cols, gradOut)
	dx := d.dx
	scale := 1 / (1 - d.Rate)
	for i, g := range gradOut.Data {
		if d.mask[i] {
			dx.Data[i] = g * scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil; dropout has no trainable parameters.
func (d *Dropout) Params() []*Param { return nil }

// dropoutLayers returns the classifier's dropout layers (empty without
// DropoutRate).
func (c *Classifier) dropoutLayers() []*Dropout {
	var out []*Dropout
	for _, l := range c.net.Layers {
		if d, ok := l.(*Dropout); ok {
			out = append(out, d)
		}
	}
	return out
}

// ProbsMC performs Monte-Carlo dropout inference: `samples` stochastic
// forward passes with dropout forced on. It returns the mean class
// probabilities and the BALD mutual-information score per row,
//
//	BALD(x) = H(E[p]) − E[H(p)]
//
// which is high exactly when the stochastic passes disagree — an epistemic-
// uncertainty signal (Gal et al. 2017). It panics unless the classifier was
// built with DropoutRate > 0.
func (c *Classifier) ProbsMC(x *mat.Dense, samples int) (meanProbs *mat.Dense, bald []float64) {
	drops := c.dropoutLayers()
	if len(drops) == 0 {
		panic("nn: ProbsMC requires a classifier built with DropoutRate > 0")
	}
	if samples <= 0 {
		samples = 10
	}
	for _, d := range drops {
		d.ForceActive = true
	}
	defer func() {
		for _, d := range drops {
			d.ForceActive = false
		}
	}()

	n, classes := x.Rows, c.cfg.NumClasses
	meanProbs = mat.NewDense(n, classes)
	meanEntropy := make([]float64, n)
	probs := make([]float64, classes)
	arena, owned := c.lockArena()
	if owned {
		defer c.arenaMu.Unlock()
	}
	for s := 0; s < samples; s++ {
		// Each pass runs whole, in the arena, reset once its softmax is
		// folded in: tiles would draw the masks of two dropout layers in
		// another order.
		arena.Reset()
		logits, _ := c.net.Infer(x, arena)
		for i := 0; i < n; i++ {
			mat.Softmax(probs, logits.Row(i))
			row := meanProbs.Row(i)
			h := 0.0
			for j, p := range probs {
				row[j] += p
				if p > 0 {
					h -= p * logOf(p)
				}
			}
			meanEntropy[i] += h
		}
	}
	inv := 1 / float64(samples)
	bald = make([]float64, n)
	for i := 0; i < n; i++ {
		row := meanProbs.Row(i)
		hMean := 0.0
		for j := range row {
			row[j] *= inv
			if row[j] > 0 {
				hMean -= row[j] * logOf(row[j])
			}
		}
		bald[i] = hMean - meanEntropy[i]*inv
		if bald[i] < 0 { // roundoff guard: MI is nonnegative
			bald[i] = 0
		}
	}
	return meanProbs, bald
}

func logOf(x float64) float64 { return math.Log(x) }
