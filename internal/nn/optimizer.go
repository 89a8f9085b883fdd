package nn

import (
	"fmt"
	"math"

	"faction/internal/mat"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter. Gradients are not cleared;
	// callers zero them per batch.
	Step(params []*Param)
	// SetLR changes the learning rate (γ_t in Algorithm 1).
	SetLR(lr float64)
	// LR reports the current learning rate.
	LR() float64
}

// NewOptimizer builds the optimizer a configuration names: "adam" (or "")
// is Adam with its conventional defaults, "sgd" is SGD with momentum 0.9,
// each with decoupled weight decay weightDecay. Any other name is an error.
func NewOptimizer(name string, lr, weightDecay float64) (Optimizer, error) {
	switch name {
	case "", "adam":
		opt := NewAdam(lr)
		opt.WeightDecay = weightDecay
		return opt, nil
	case "sgd":
		return NewSGD(lr, 0.9, weightDecay), nil
	}
	return nil, fmt.Errorf("unknown optimizer %q (want \"adam\" or \"sgd\")", name)
}

// SGD is stochastic gradient descent with optional momentum and decoupled
// weight decay.
type SGD struct {
	lr          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*mat.Dense
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{lr: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*mat.Dense{}}
}

// Step applies v ← m·v − lr·g; w ← w + v − lr·wd·w.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if o.WeightDecay != 0 {
			mat.AddScaled(p.Value, -o.lr*o.WeightDecay, p.Value)
		}
		if o.Momentum == 0 {
			mat.AddScaled(p.Value, -o.lr, p.Grad)
			continue
		}
		v, ok := o.velocity[p]
		if !ok {
			v = mat.NewDense(p.Value.Rows, p.Value.Cols)
			o.velocity[p] = v
		}
		v.Scale(o.Momentum)
		mat.AddScaled(v, -o.lr, p.Grad)
		mat.AddInPlace(p.Value, v)
	}
}

// SetLR changes the learning rate.
func (o *SGD) SetLR(lr float64) { o.lr = lr }

// LR reports the current learning rate.
func (o *SGD) LR() float64 { return o.lr }

// Adam implements Kingma & Ba's Adam with bias correction and decoupled
// weight decay (AdamW-style).
type Adam struct {
	lr           float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	t int
	m map[*Param]*mat.Dense
	v map[*Param]*mat.Dense
}

// NewAdam returns an Adam optimizer with the conventional defaults
// β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, m: map[*Param]*mat.Dense{}, v: map[*Param]*mat.Dense{}}
}

// Step applies one Adam update.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	c := adamCoeffs{o.Beta1, 1 - o.Beta1, o.Beta2, 1 - o.Beta2, bc1, bc2, o.lr, o.Eps}
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = mat.NewDense(p.Value.Rows, p.Value.Cols)
			o.m[p] = m
			o.v[p] = mat.NewDense(p.Value.Rows, p.Value.Cols)
		}
		v := o.v[p]
		if o.WeightDecay != 0 {
			mat.AddScaled(p.Value, -o.lr*o.WeightDecay, p.Value)
		}
		adamUpdate(p.Value.Data, p.Grad.Data, m.Data, v.Data, &c)
	}
}

// adamCoeffs are one Adam step's scalars, laid out as adam_amd64.s reads
// them.
type adamCoeffs struct {
	beta1, oneMinusBeta1, beta2, oneMinusBeta2, bc1, bc2, lr, eps float64
}

// adamUpdate runs Adam's element loop over one parameter: the moments, then
// the bias-corrected step, every operation rounded in the order written.
// With the assembly kernels on, whole groups of four elements run in
// adamAVX, whose vector operations round each lane as these scalar ones do.
func adamUpdate(p, g, m, v []float64, c *adamCoeffs) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	if n := len(p) &^ 3; n > 0 && mat.Vectorized() {
		adamAVX(p[:n], g[:n], m[:n], v[:n], c)
		p, g, m, v = p[n:], g[n:], m[n:], v[n:]
	}
	for i, gi := range g {
		m[i] = c.beta1*m[i] + c.oneMinusBeta1*gi
		v[i] = c.beta2*v[i] + c.oneMinusBeta2*gi*gi
		mhat := m[i] / c.bc1
		vhat := v[i] / c.bc2
		p[i] -= c.lr * mhat / (math.Sqrt(vhat) + c.eps)
	}
}

// SetLR changes the learning rate.
func (o *Adam) SetLR(lr float64) { o.lr = lr }

// LR reports the current learning rate.
func (o *Adam) LR() float64 { return o.lr }

// ClipGradNorm rescales all gradients so their joint L2 norm is at most
// maxNorm. It returns the pre-clip norm. A non-positive maxNorm is a no-op.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
