package nn

import (
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 2, 2, false, 0)
	l.W.Value.CopyFrom(mat.FromRows([][]float64{{1, 2}, {3, 4}}))
	l.B.Value.CopyFrom(mat.FromRows([][]float64{{10, 20}}))
	x := mat.FromRows([][]float64{{1, 1}, {2, 0}})
	out := l.Infer(x, nil)
	want := mat.FromRows([][]float64{{14, 26}, {12, 24}})
	for i := range want.Data {
		if math.Abs(out.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestLinearShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 3, 2, false, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Forward(mat.NewDense(1, 4))
}

func TestLinearBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(rng, 2, 2, false, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Backward(mat.NewDense(1, 2))
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := mat.FromRows([][]float64{{-1, 0, 2}})
	out := r.Forward(x)
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 || out.At(0, 2) != 2 {
		t.Fatalf("relu out = %v", out)
	}
	g := r.Backward(mat.FromRows([][]float64{{5, 5, 5}}))
	if g.At(0, 0) != 0 || g.At(0, 1) != 0 || g.At(0, 2) != 5 {
		t.Fatalf("relu grad = %v", g)
	}
	// Input must be untouched (Forward clones).
	if x.At(0, 0) != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

// numericGrad computes a central finite-difference gradient of f with
// respect to the parameter p.
func numericGrad(p *Param, f func() float64) *mat.Dense {
	const h = 1e-5
	g := mat.NewDense(p.Value.Rows, p.Value.Cols)
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + h
		up := f()
		p.Value.Data[i] = orig - h
		down := f()
		p.Value.Data[i] = orig
		g.Data[i] = (up - down) / (2 * h)
	}
	return g
}

// TestBackpropGradientCheck verifies analytic gradients of a 2-hidden-layer
// ReLU MLP with cross-entropy against finite differences.
func TestBackpropGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := &Network{Layers: []Layer{
		NewLinear(rng, 3, 5, false, 0),
		NewReLU(),
		NewLinear(rng, 5, 4, false, 0),
		NewReLU(),
		NewLinear(rng, 4, 2, false, 0),
	}}
	x := mat.FromRows([][]float64{
		{0.5, -1.2, 0.3},
		{1.5, 0.2, -0.7},
		{-0.3, 0.9, 1.1},
	})
	y := []int{0, 1, 1}
	lossFn := func() float64 {
		logits, _ := net.Infer(x, nil)
		loss, _ := CrossEntropy(logits, y)
		return loss
	}
	logits := net.Forward(x)
	_, grad := CrossEntropy(logits, y)
	net.ZeroGrad()
	net.Backward(grad)
	for _, p := range net.Params() {
		want := numericGrad(p, lossFn)
		for i := range want.Data {
			diff := math.Abs(p.Grad.Data[i] - want.Data[i])
			scale := 1 + math.Abs(want.Data[i])
			if diff/scale > 1e-5 {
				t.Fatalf("%s grad[%d] = %g, numeric %g", p.Name, i, p.Grad.Data[i], want.Data[i])
			}
		}
	}
}

// TestBackpropFairGradientCheck repeats the gradient check with the
// fairness-regularized loss active (Eq. 9) so the DDP penalty path is
// verified too.
func TestBackpropFairGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := &Network{Layers: []Layer{
		NewLinear(rng, 3, 4, false, 0),
		NewReLU(),
		NewLinear(rng, 4, 2, false, 0),
	}}
	x := mat.FromRows([][]float64{
		{0.5, -1.2, 0.3},
		{1.5, 0.2, -0.7},
		{-0.3, 0.9, 1.1},
		{2.0, -0.5, 0.4},
	})
	y := []int{0, 1, 1, 0}
	s := []int{1, -1, 1, -1}
	cfg := FairConfig{Mu: 2.0, Eps: 0} // strong μ so the hinge is active
	lossFn := func() float64 {
		logits, _ := net.Infer(x, nil)
		res, _ := FairRegularizedCE(logits, y, s, cfg)
		return res.Total
	}
	logits := net.Forward(x)
	res, grad := FairRegularizedCE(logits, y, s, cfg)
	if res.Fair == 0 {
		t.Skip("hinge inactive for this seed; gradient check vacuous")
	}
	net.ZeroGrad()
	net.Backward(grad)
	for _, p := range net.Params() {
		want := numericGrad(p, lossFn)
		for i := range want.Data {
			diff := math.Abs(p.Grad.Data[i] - want.Data[i])
			scale := 1 + math.Abs(want.Data[i])
			if diff/scale > 1e-5 {
				t.Fatalf("%s grad[%d] = %g, numeric %g", p.Name, i, p.Grad.Data[i], want.Data[i])
			}
		}
	}
}

func TestNetworkFeatureTap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := &Network{Layers: []Layer{
		NewLinear(rng, 2, 3, false, 0),
		NewReLU(),
		NewLinear(rng, 3, 2, false, 0),
	}, FeatureTap: 0}
	x := mat.FromRows([][]float64{{1, 2}})
	_, f := net.Infer(x, nil)
	if f.Rows != 1 || f.Cols != 3 {
		t.Fatalf("feature shape %dx%d", f.Rows, f.Cols)
	}
}

func TestNetworkCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := &Network{Layers: []Layer{NewLinear(rng, 2, 2, false, 0)}}
	b := &Network{Layers: []Layer{NewLinear(rng, 2, 2, false, 0)}}
	b.CopyParamsFrom(a)
	x := mat.FromRows([][]float64{{1, -1}})
	oa, _ := a.Infer(x, nil)
	ob, _ := b.Infer(x, nil)
	for i := range oa.Data {
		if oa.Data[i] != ob.Data[i] {
			t.Fatal("copied networks disagree")
		}
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := &Network{Layers: []Layer{NewLinear(rng, 3, 5, false, 0), NewReLU(), NewLinear(rng, 5, 2, false, 0)}}
	want := 3*5 + 5 + 5*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("params = %d, want %d", got, want)
	}
}

func TestEmptyNetworkPanics(t *testing.T) {
	net := &Network{}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Forward(mat.NewDense(1, 1))
}

func TestCopyParamsArchMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := &Network{Layers: []Layer{NewLinear(rng, 2, 2, false, 0)}}
	b := &Network{Layers: []Layer{NewLinear(rng, 2, 2, false, 0), NewReLU(), NewLinear(rng, 2, 2, false, 0)}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.CopyParamsFrom(b)
}
