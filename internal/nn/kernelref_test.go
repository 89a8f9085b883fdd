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

// Property: Forward, Backward and Infer match the masked rectifier bit for
// bit: ±0, NaN of either sign, ±Inf and subnormals included, on columns that
// are all rectified to zero, and when the batch shrinks between calls as it
// does for an epoch's last batch. Selection does no arithmetic, so even NaN
// payloads must match.
func TestReLUMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := NewReLU()
	for _, sh := range [][2]int{{32, 512}, {1, 1}, {3, 5}, {22, 512}, {7, 13}} {
		name := fmt.Sprintf("%dx%d", sh[0], sh[1])
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
}

// Property: Linear's fused scale-and-bias pass matches the separate passes
// bit for bit, at unit and non-unit scale. The product must round before the
// bias is added; a target that fused the two into one multiply-add would
// fail here.
func TestLinearEpilogueMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range [][3]int{{32, 16, 512}, {5, 7, 2}, {1, 512, 2}, {9, 3, 65}} {
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
				t.Fatalf("%v scale %g: epilogue differs at %d: %v, reference %v", sh, scale, i, got.Data[i], want.Data[i])
			}
		}
	}
}
