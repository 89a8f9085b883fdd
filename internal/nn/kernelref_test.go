package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

// The layers' earlier loops, kept as bit-identity references: the rectifier
// that branched on each input's sign and recorded a []bool mask for
// Backward, and the affine epilogue that scaled the product in its own pass
// before adding the bias.

// reluRef is the masked rectifier.
type reluRef struct{ mask []bool }

func (r *reluRef) forward(x []float64) []float64 {
	out := make([]float64, len(x))
	r.mask = make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			r.mask[i] = true
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

func (r *reluRef) backward(g []float64) []float64 {
	dx := make([]float64, len(g))
	for i, v := range g {
		if r.mask[i] {
			dx[i] = v
		}
	}
	return dx
}

func reluInferRef(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v <= 0 {
			out[i] = 0
		} else {
			out[i] = v
		}
	}
	return out
}

// affineRef is Linear's epilogue as separate passes: x·W, then ·scale, then
// + b.
func affineRef(x, w *mat.Dense, b []float64, scale float64) *mat.Dense {
	out := mat.Mul(x, w)
	if scale != 1 {
		out.Scale(scale)
	}
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
	return out
}

// edgeValues are the inputs whose rectification a sign branch and a bit mask
// could disagree on.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// edgeDense fills an r×c matrix with normal draws, one in oneIn replaced by
// an edge value.
func edgeDense(rng *rand.Rand, r, c, oneIn int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		if rng.Intn(oneIn) == 0 {
			m.Data[i] = edgeValues[rng.Intn(len(edgeValues))]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// firstDiff returns the first index where got and want differ in bits, or
// −1.
func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// gateSettings runs f once with the assembly kernels off and once on (where
// the CPU has them; elsewhere both runs use the Go loops), then restores
// the gate.
func gateSettings(f func(asm bool)) {
	defer mat.SetVectorized(mat.Vectorized())
	for _, on := range []bool{false, true} {
		mat.SetVectorized(on)
		f(mat.Vectorized())
	}
}

// Property: Forward, Backward and Infer match the masked rectifier bit for
// bit, with the assembly kernels on and off: ±0, NaN of either sign, ±Inf
// and subnormals included, on columns that are all rectified to zero, at
// lengths around the vector width, and when the batch shrinks between calls
// as it does for an epoch's last batch. Selection does no arithmetic, so
// even NaN payloads must match.
func TestReLUMatchesReferenceBits(t *testing.T) {
	shapes := [][2]int{{32, 512}, {1, 1}, {3, 5}, {22, 512}, {7, 13}, {1, 9730}}
	for _, c := range []int{2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33} {
		shapes = append(shapes, [2]int{1, c})
	}
	gateSettings(func(asm bool) {
		rng := rand.New(rand.NewSource(29))
		r := NewReLU()
		for _, sh := range shapes {
			name := fmt.Sprintf("asm=%v %dx%d", asm, sh[0], sh[1])
			x, g := edgeDense(rng, sh[0], sh[1], 4), edgeDense(rng, sh[0], sh[1], 4)
			for i := 0; i < x.Rows; i++ {
				x.Set(i, 0, -math.Abs(x.At(i, 0))) // a dead column
			}
			var ref reluRef
			out := r.Forward(x)
			if i := firstDiff(out.Data, ref.forward(x.Data)); i >= 0 {
				t.Fatalf("%s: Forward differs at %d: %v, reference %v", name, i, out.Data[i], ref.forward(x.Data)[i])
			}
			dx := r.Backward(g)
			if i := firstDiff(dx.Data, ref.backward(g.Data)); i >= 0 {
				t.Fatalf("%s: Backward differs at %d: %v, reference %v", name, i, dx.Data[i], ref.backward(g.Data)[i])
			}
			inf := r.Infer(x, nil)
			if i := firstDiff(inf.Data, reluInferRef(x.Data)); i >= 0 {
				t.Fatalf("%s: Infer differs at %d: %v, reference %v", name, i, inf.Data[i], reluInferRef(x.Data)[i])
			}
		}
	})
}

// Property: Linear's fused scale-and-bias pass matches the separate passes
// bit for bit, with the assembly kernels on and off, at unit and non-unit
// scale and at output widths around the vector width. The product must
// round before the bias is added; a target that fused the two into one
// multiply-add would fail here.
func TestLinearEpilogueMatchesReferenceBits(t *testing.T) {
	shapes := [][3]int{{32, 16, 512}, {5, 7, 2}, {1, 512, 2}, {9, 3, 65}}
	for _, out := range []int{1, 3, 4, 5, 7, 8, 9, 31, 32, 33} {
		shapes = append(shapes, [3]int{3, 4, out})
	}
	gateSettings(func(asm bool) {
		rng := rand.New(rand.NewSource(31))
		for _, sh := range shapes {
			n, in, out := sh[0], sh[1], sh[2]
			l := NewLinear(rng, in, out, false, 0)
			// Rare edge values in the product's operands keep most sums finite.
			l.W.Value = edgeDense(rng, in, out, 256)
			l.B.Value = edgeDense(rng, 1, out, 4)
			x := edgeDense(rng, n, in, 256)
			for _, scale := range []float64{1, 0.3710935, 3.0 / 7} {
				got := mat.NewDense(n, out)
				l.affineInto(got, x, scale)
				want := affineRef(x, l.W.Value, l.B.Value.Row(0), scale)
				if i := firstDiff(got.Data, want.Data); i >= 0 {
					t.Fatalf("asm=%v %v scale %g: epilogue differs at %d: %v, reference %v", asm, sh, scale, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

// refLengths are the lengths the layer references run at: every length up
// to two vector widths, one vector block either side of 32, the paper's
// hidden width and the paper network's parameter count.
var refLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 512, 9730}

// paramGradsRef is Linear.paramGrads as the plain loops wrote it: the
// weight gradient gains scale·(xᵀg) element by element, and the bias
// gradient gains each row of g in ascending row order.
func paramGradsRef(wGrad, bGrad []float64, x, g *mat.Dense, scale float64) {
	dw := mat.MulTA(x, g)
	for i, v := range dw.Data {
		wGrad[i] += scale * v
	}
	for i := 0; i < g.Rows; i++ {
		for j, v := range g.Row(i) {
			bGrad[j] += v
		}
	}
}

// Property: Linear's parameter gradients match the plain loops bit for
// bit, with the assembly kernels on and off: output widths in refLengths,
// 1, 3 and 32 rows, unit and non-unit spectral scale, on gradients with ±0,
// ±Inf, NaN and subnormals accumulated onto gradients that are not zero.
func TestLinearParamGradsMatchReferenceBits(t *testing.T) {
	gateSettings(func(asm bool) {
		rng := rand.New(rand.NewSource(41))
		for _, out := range refLengths {
			for _, rows := range []int{1, 3, 32} {
				for _, scale := range []float64{1, 0.3710935} {
					name := fmt.Sprintf("asm=%v out=%d rows=%d scale=%g", asm, out, rows, scale)
					l := NewLinear(rng, 3, out, false, 0)
					x := edgeDense(rng, rows, 3, 64)
					l.Forward(x)
					l.lastScale = scale
					g := edgeDense(rng, rows, out, 4)
					l.W.Grad = edgeDense(rng, 3, out, 4)
					l.B.Grad = edgeDense(rng, 1, out, 4)
					wantW := append([]float64(nil), l.W.Grad.Data...)
					wantB := append([]float64(nil), l.B.Grad.Data...)
					paramGradsRef(wantW, wantB, x, g, scale)
					l.paramGrads(g)
					if i := diffNonNaN(l.W.Grad.Data, wantW); i >= 0 {
						t.Fatalf("%s: weight gradient differs at %d: %v, reference %v", name, i, l.W.Grad.Data[i], wantW[i])
					}
					if i := diffNonNaN(l.B.Grad.Data, wantB); i >= 0 {
						t.Fatalf("%s: bias gradient differs at %d: %v, reference %v", name, i, l.B.Grad.Data[i], wantB[i])
					}
				}
			}
		}
	})
}

// powerIterationRef is spectralState.powerIteration as the plain loops
// wrote it: each v_i a dot product of W's row i with u from +0, u
// accumulated over W's rows in ascending order, each norm a dot product in
// ascending order, and each normalization a multiply by the norm's
// reciprocal.
func powerIterationRef(s *spectralState, w *mat.Dense) {
	dot := func(a, b []float64) float64 {
		sum := 0.0
		for i, v := range a {
			sum += v * b[i]
		}
		return sum
	}
	normalize := func(x []float64) bool {
		n := math.Sqrt(dot(x, x))
		if n == 0 {
			return false
		}
		inv := 1 / n
		for i := range x {
			x[i] *= inv
		}
		return true
	}
	for i := range s.v {
		s.v[i] = dot(w.Row(i), s.u)
	}
	if !normalize(s.v) {
		s.sigma = 0
		return
	}
	for j := range s.u {
		s.u[j] = 0
	}
	for i, vi := range s.v {
		for j, wij := range w.Row(i) {
			s.u[j] += wij * vi
		}
	}
	s.sigma = math.Sqrt(dot(s.u, s.u))
	normalize(s.u)
}

// Property: three steps of the spectral-norm power iteration match the
// plain loops bit for bit on u, v and σ after every step, with the assembly
// kernels on and off: every pair of dimensions in refLengths up to 512 (the
// paper's first layer is 16 × 512 and its head 512 × 2), plus 9,730-wide
// and 9,730-tall weights, with rare ±0, ±Inf, NaN and subnormal entries,
// and weights where such entries are common.
func TestPowerIterationMatchesReferenceBits(t *testing.T) {
	var shapes [][2]int
	for _, in := range refLengths[:len(refLengths)-1] {
		for _, out := range refLengths[:len(refLengths)-1] {
			shapes = append(shapes, [2]int{in, out})
		}
	}
	shapes = append(shapes, [2]int{16, 512}, [2]int{512, 2}, [2]int{3, 9730}, [2]int{9730, 2})
	gateSettings(func(asm bool) {
		rng := rand.New(rand.NewSource(43))
		for _, sh := range shapes {
			for _, oneIn := range []int{1024, 4} {
				in, out := sh[0], sh[1]
				w := edgeDense(rng, in, out, oneIn)
				s := newSpectralState(rng, in, out, 3)
				ref := &spectralState{coeff: s.coeff, u: append([]float64(nil), s.u...), v: append([]float64(nil), s.v...), sigma: s.sigma}
				for step := 1; step <= 3; step++ {
					name := fmt.Sprintf("asm=%v %dx%d oneIn=%d step %d", asm, in, out, oneIn, step)
					s.powerIteration(w)
					powerIterationRef(ref, w)
					if i := diffNonNaN(s.v, ref.v); i >= 0 {
						t.Fatalf("%s: v differs at %d: %v, reference %v", name, i, s.v[i], ref.v[i])
					}
					if i := diffNonNaN(s.u, ref.u); i >= 0 {
						t.Fatalf("%s: u differs at %d: %v, reference %v", name, i, s.u[i], ref.u[i])
					}
					if i := diffNonNaN([]float64{s.sigma}, []float64{ref.sigma}); i >= 0 {
						t.Fatalf("%s: σ %v, reference %v", name, s.sigma, ref.sigma)
					}
				}
			}
		}
	})
}

// adamRef is Adam.Step's element loop for one parameter as the plain Go loop
// wrote it: decoupled weight decay as mat.AddScaled applies it, then each
// moment and the bias-corrected step, every multiply, add, divide and square
// root rounded in the order the expressions are written.
func adamRef(p, g, m, v []float64, lr, beta1, beta2, eps, wd float64, t int) {
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	if wd != 0 {
		s := -lr * wd
		for i := range p {
			p[i] += s * p[i]
		}
	}
	for i, gi := range g {
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		p[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

// adamEdges are the gradients whose moments and step could round or
// propagate differently: the rectifier's edge values plus subnormals that
// (1−β₂)·g·g flushes to zero and ones it keeps.
var adamEdges = append(append([]float64{}, edgeValues...),
	math.SmallestNonzeroFloat64*3, -1e-310, 2.2250738585072009e-308, 1e-160, -1e-155)

// diffNonNaN returns the first index where got and want differ in bits, or
// −1, counting any two NaNs as equal: when both operands of an operation
// are NaN, which payload survives depends on the operand order, which IEEE
// 754 leaves to the implementation.
func diffNonNaN(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// Property: Adam.Step matches the plain element loop bit for bit on every
// parameter, moment and second moment, with the assembly kernels on and
// off: lengths 0–9 and 31–33 around the vector width, the paper network's
// 9,730 parameters, the first step and step 10⁴ from a warm state, with and
// without weight decay, on gradients with ±0, ±Inf, NaN and subnormals.
func TestAdamMatchesReferenceBits(t *testing.T) {
	defer mat.SetVectorized(mat.Vectorized())
	rng := rand.New(rand.NewSource(37))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 9730}
	for _, asm := range []bool{false, true} {
		mat.SetVectorized(asm) // stays off where the CPU lacks the kernels
		for _, n := range lengths {
			for _, step := range []int{1, 10000} {
				for _, wd := range []float64{0, 1e-4} {
					name := fmt.Sprintf("asm=%v n=%d t=%d wd=%g", mat.Vectorized(), n, step, wd)
					prm := newParam("w", 1, n)
					for i := range prm.Value.Data {
						prm.Value.Data[i] = rng.NormFloat64()
						if rng.Intn(8) == 0 {
							prm.Grad.Data[i] = adamEdges[rng.Intn(len(adamEdges))]
						} else {
							prm.Grad.Data[i] = 0.1 * rng.NormFloat64()
						}
					}
					o := NewAdam(0.01)
					o.WeightDecay = wd
					m, v := make([]float64, n), make([]float64, n)
					if step > 1 {
						// A warm optimizer: step t−1 done, moments from earlier steps.
						o.t = step - 1
						for i := range m {
							m[i] = 0.05 * rng.NormFloat64()
							v[i] = 0.01 * math.Abs(rng.NormFloat64())
						}
						o.m[prm] = mat.NewDenseData(1, n, append([]float64(nil), m...))
						o.v[prm] = mat.NewDenseData(1, n, append([]float64(nil), v...))
					}
					p := append([]float64(nil), prm.Value.Data...)
					adamRef(p, prm.Grad.Data, m, v, o.LR(), o.Beta1, o.Beta2, o.Eps, wd, step)
					o.Step([]*Param{prm})
					for _, c := range []struct {
						what      string
						got, want []float64
					}{{"parameter", prm.Value.Data, p}, {"first moment", o.m[prm].Data, m}, {"second moment", o.v[prm].Data, v}} {
						if i := diffNonNaN(c.got, c.want); i >= 0 {
							t.Fatalf("%s: %s differs at %d: %v, reference %v", name, c.what, i, c.got[i], c.want[i])
						}
					}
				}
			}
		}
	}
}
