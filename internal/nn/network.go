package nn

import (
	"fmt"

	"faction/internal/mat"
)

// Network is an ordered stack of layers with a designated feature tap: the
// output of layer FeatureTap (0-based, inclusive) is the representation
// z = r(x, θ) consumed by the density estimator (Section IV-B).
type Network struct {
	Layers     []Layer
	FeatureTap int // index of the layer whose output is the feature vector

	params []*Param // cached Params() result (layers are fixed after construction)
}

// Forward is the training pass: it runs the full stack and returns the
// final output (logits).
func (n *Network) Forward(x *mat.Dense) *mat.Dense {
	if len(n.Layers) == 0 {
		panic("nn: empty network")
	}
	h := x
	for _, l := range n.Layers {
		h = l.Forward(h)
	}
	return h
}

// Infer is the inference pass: it runs every layer's Infer and returns both
// the final output and the activations at the feature tap. It writes no
// shared state, so any number of goroutines may call it concurrently as long
// as each brings its own arena (or a nil one). With an arena, every
// intermediate comes from it — a fixed-shape inference loop allocates
// nothing — and both returned matrices die when it is reset; with a nil
// arena they live on the heap. The bits are the same either way.
func (n *Network) Infer(x *mat.Dense, a *mat.Arena) (out, features *mat.Dense) {
	if len(n.Layers) == 0 {
		panic("nn: empty network")
	}
	h := x
	for i, l := range n.Layers {
		h = l.Infer(h, a)
		if i == n.FeatureTap {
			features = h
		}
	}
	return h, features
}

// Features runs the inference pass only through the feature tap and returns
// the tap's activations, with the bits of Infer's features: the layers after
// the tap do not run. Its intermediates come from a as Infer's do (the heap
// when a is nil).
func (n *Network) Features(x *mat.Dense, a *mat.Arena) *mat.Dense {
	if len(n.Layers) == 0 {
		panic("nn: empty network")
	}
	h := x
	for _, l := range n.Layers[:n.FeatureTap+1] {
		h = l.Infer(h, a)
	}
	return h
}

// Backward propagates the loss gradient (with respect to the final output)
// through every layer, accumulating parameter gradients. Nothing reads the
// gradient with respect to the network's input, so a first Linear layer
// computes only its parameter gradients.
func (n *Network) Backward(gradOut *mat.Dense) {
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if l, ok := n.Layers[i].(*Linear); ok && i == 0 {
			l.paramGrads(g)
			return
		}
		g = n.Layers[i].Backward(g)
	}
}

// Params returns all trainable parameters in layer order. The slice is cached
// (the layer stack never changes after construction), so per-step callers —
// ZeroGrad, optimizers, gradient clipping — do not allocate.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value.Data)
	}
	return total
}

// CopyParamsFrom copies parameter values (not gradients) from src. The two
// networks must have identical architectures.
func (n *Network) CopyParamsFrom(src *Network) {
	a, b := n.Params(), src.Params()
	if len(a) != len(b) {
		panic(fmt.Sprintf("nn: copy params across architectures: %d vs %d tensors", len(a), len(b)))
	}
	for i := range a {
		a[i].Value.CopyFrom(b[i].Value)
	}
}
