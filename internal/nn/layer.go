package nn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"faction/internal/mat"
)

// Layer is one differentiable stage of a network. Forward is the training
// pass: it caches whatever the subsequent Backward needs; Backward
// accumulates parameter gradients and returns the gradient with respect to
// its input. Infer is the one inference pass.
//
// Scratch-reuse contract: matrices returned by Forward and by Backward are
// owned by the layer and are overwritten by its next training call — callers
// may read them freely within the current training step but must clone
// anything they retain across steps.
//
// Infer is read-only on layer state, so one layer serves any number of
// concurrent inference passes. Its output comes from the caller's arena,
// or is allocated on the heap when the arena is nil (see get); stateless
// layers may return x itself. An arena-backed output dies when the caller
// resets the arena, and both forms carry the same bits.
type Layer interface {
	Forward(x *mat.Dense) *mat.Dense
	Infer(x *mat.Dense, a *mat.Arena) *mat.Dense
	Backward(gradOut *mat.Dense) *mat.Dense
	Params() []*Param
}

// get takes an r×c matrix from a, or allocates it from the heap when a is
// nil, so one inference path serves arena and allocating callers. The check
// sits here, not in mat.Arena.Get: lengthening Get moved the small-matmul
// kernel that follows it and slowed serving shapes (DESIGN.md §10).
func get(a *mat.Arena, r, c int) *mat.Dense {
	if a == nil {
		return mat.NewDense(r, c)
	}
	return a.Get(r, c)
}

// ensureScratch returns buf resliced to shape r×c when its storage holds
// r·c floats (and it is not the forbidden alias), or a fresh r×c matrix
// otherwise. Callers overwrite every element, so the reslice moves no bit.
// A training loop hits the reuse path every step, including the shorter
// last batch of each epoch.
func ensureScratch(buf *mat.Dense, r, c int, notAlias *mat.Dense) *mat.Dense {
	if buf == nil || cap(buf.Data) < r*c || buf == notAlias {
		return mat.NewDense(r, c)
	}
	buf.Rows, buf.Cols, buf.Data = r, c, buf.Data[:r*c]
	return buf
}

// Linear is a fully connected layer y = x·W + b with optional spectral
// normalization of W (see spectral.go).
type Linear struct {
	In, Out int
	W, B    *Param

	// Spectral normalization state; nil when disabled.
	sn *spectralState

	lastInput *mat.Dense // cached for Backward
	lastScale float64    // effective-weight scale used in the last Forward

	// Train-step scratch, reused while the batch shape is unchanged (see the
	// Layer scratch-reuse contract). Infer never touches these.
	out, dx, dw *mat.Dense
}

// NewLinear creates a linear layer with He initialization.
func NewLinear(rng *rand.Rand, in, out int, spectralNorm bool, spectralCoeff float64) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   newParam(fmt.Sprintf("linear(%d,%d).W", in, out), in, out),
		B:   newParam(fmt.Sprintf("linear(%d,%d).b", in, out), 1, out),
	}
	heInit(rng, l.W.Value, in)
	if spectralNorm {
		l.sn = newSpectralState(rng, in, out, spectralCoeff)
		// Seed σ from the freshly initialized weights so a never-trained
		// model already serves spectrally normalized; inference-time scale()
		// stays read-only (it never runs the iteration itself).
		l.sn.powerIteration(l.W.Value)
	}
	l.lastScale = 1
	return l
}

// Forward computes x·Ŵ + b where Ŵ = scale·W with scale determined by
// spectral normalization (1 when disabled). It advances the spectral-norm
// power iteration one step and caches the input for Backward.
func (l *Linear) Forward(x *mat.Dense) *mat.Dense {
	l.checkInput(x)
	scale := 1.0
	if l.sn != nil {
		scale = l.sn.scale(l.W.Value, true)
	}
	l.lastInput = x
	l.lastScale = scale
	l.out = ensureScratch(l.out, x.Rows, l.Out, x)
	l.affineInto(l.out, x, scale)
	return l.out
}

// Infer is the read-only inference pass: the spectral scale reuses the last
// σ estimate without advancing the iteration.
func (l *Linear) Infer(x *mat.Dense, a *mat.Arena) *mat.Dense {
	l.checkInput(x)
	scale := 1.0
	if l.sn != nil {
		scale = l.sn.scale(l.W.Value, false)
	}
	out := get(a, x.Rows, l.Out)
	l.affineInto(out, x, scale)
	return out
}

func (l *Linear) checkInput(x *mat.Dense) {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: linear input %d cols, want %d", x.Cols, l.In))
	}
}

// affineInto writes scale·(x·W) + b into out — the arithmetic Forward and
// Infer share, so the two passes cannot disagree by a bit. Each row is
// scaled in its own pass, which rounds the product before the bias is
// added, so no target may fuse the two; both passes run as vector kernels
// when the gate is on.
func (l *Linear) affineInto(out, x *mat.Dense, scale float64) {
	mat.MulInto(out, x, l.W.Value)
	b := l.B.Value.Row(0)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		if scale != 1 {
			mat.ScaleVec(row, scale)
		}
		mat.AddVec(row, b)
	}
}

// Backward accumulates dW = scale·xᵀg and db = Σ_rows g, and returns
// dx = scale·g·Wᵀ. The spectral scale is treated as a constant (standard
// stop-gradient approximation for power-iteration spectral norm).
func (l *Linear) Backward(gradOut *mat.Dense) *mat.Dense {
	l.paramGrads(gradOut)
	l.dx = ensureScratch(l.dx, gradOut.Rows, l.In, gradOut)
	mat.MulTBInto(l.dx, gradOut, l.W.Value)
	if l.lastScale != 1 {
		l.dx.Scale(l.lastScale)
	}
	return l.dx
}

// paramGrads is the part of Backward that accumulates dW and db, without the
// input gradient.
func (l *Linear) paramGrads(gradOut *mat.Dense) {
	if l.lastInput == nil {
		panic("nn: Backward before Forward")
	}
	if gradOut.Rows != l.lastInput.Rows || gradOut.Cols != l.Out {
		panic(fmt.Sprintf("nn: linear grad %dx%d, want %dx%d", gradOut.Rows, gradOut.Cols, l.lastInput.Rows, l.Out))
	}
	l.dw = ensureScratch(l.dw, l.In, l.Out, nil)
	mat.MulTAInto(l.dw, l.lastInput, gradOut)
	mat.AddScaled(l.W.Grad, l.lastScale, l.dw)
	db := l.B.Grad.Row(0)
	for i := 0; i < gradOut.Rows; i++ {
		mat.AddVec(db, gradOut.Row(i))
	}
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU applies max(0, x) elementwise: every value ≤ 0 becomes +0 and a NaN
// passes through, in training and inference alike (rectify).
//
// Its loops select with integer masks instead of branches: the sign of a
// pre-activation is a coin flip to the branch predictor, and with a branch
// per element the layer took an eighth of the paper-shape training step.
// With the assembly kernels on (mat.Vectorized), whole groups of four
// elements take the same masks on 256-bit vectors (relu_amd64.s).
type ReLU struct {
	out, dx *mat.Dense // train-step scratch (see Layer scratch-reuse contract)
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// rectify writes src[i] into dst[i] unless src[i] ≤ 0, and +0 there, so
// a NaN passes through unchanged. len(dst) ≥ len(src). Read as signed
// integers, the bits of −0, of every negative value and of −Inf lie at or
// below −Inf's, those of everything else above, and +0 keeps its zero
// bits; flipping the sign bit turns that signed order into the unsigned
// order bits.Sub64 compares, with −Inf's bits becoming +Inf's.
func rectify(dst, src []float64) {
	if n := len(src) &^ 3; n > 0 && mat.Vectorized() {
		reluAVX(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	const posInfBits = 0x7FF0000000000000
	for i, v := range src {
		b := math.Float64bits(v)
		_, keep := bits.Sub64(posInfBits, b^(1<<63), 0) // 1 iff b > −Inf's bits, signed
		dst[i] = math.Float64frombits(b & -keep)
	}
}

// Forward applies the rectifier. Backward reads the output it leaves: an
// output is +0 exactly where the input was ≤ 0.
func (r *ReLU) Forward(x *mat.Dense) *mat.Dense {
	r.out = ensureScratch(r.out, x.Rows, x.Cols, x)
	rectify(r.out.Data, x.Data)
	return r.out
}

// Infer rectifies into a fresh matrix.
func (r *ReLU) Infer(x *mat.Dense, a *mat.Arena) *mat.Dense {
	out := get(a, x.Rows, x.Cols)
	rectify(out.Data, x.Data)
	return out
}

// Backward zeroes gradients where Forward's output is +0, that is where the
// input was ≤ 0; a NaN input passes its gradient.
func (r *ReLU) Backward(gradOut *mat.Dense) *mat.Dense {
	if r.out == nil || len(r.out.Data) != len(gradOut.Data) {
		panic("nn: ReLU Backward shape mismatch with last Forward")
	}
	r.dx = ensureScratch(r.dx, gradOut.Rows, gradOut.Cols, gradOut)
	out, dx, grad := r.out.Data[:len(gradOut.Data)], r.dx.Data[:len(gradOut.Data)], gradOut.Data
	if n := len(grad) &^ 3; n > 0 && mat.Vectorized() {
		reluBackwardAVX(dx[:n], grad[:n], out[:n])
		out, dx, grad = out[n:], dx[n:], grad[n:]
	}
	for i, g := range grad {
		o := math.Float64bits(out[i])
		nz := (o | -o) >> 63 // 1 iff o ≠ 0
		dx[i] = math.Float64frombits(math.Float64bits(g) & -nz)
	}
	return r.dx
}

// Params returns nil; ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }
