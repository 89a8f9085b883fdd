package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The element loops of the vector helpers and of the low-rank fit, written
// out as bit-identity references. Each rounds every element's product and
// sum in the order the loop below writes them.

// axpyRef is AxpyVec's loop: y[i] += s·x[i].
func axpyRef(y []float64, s float64, x []float64) {
	for i, v := range x {
		y[i] += s * v
	}
}

// addRef is AddVec's loop: y[i] += x[i].
func addRef(y, x []float64) {
	for i := range y {
		y[i] += x[i]
	}
}

// scaleRef is ScaleVec's loop: v[i] *= s.
func scaleRef(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// vecLengths are the lengths the vector references run at: every length
// up to two vector widths, one vector block either side of 32, the paper's
// hidden width and the paper network's parameter count.
var vecLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 512, 9730}

// edgeFloats are the operands whose products and sums could round or
// propagate differently: signed zeros and infinities, NaN of either sign,
// subnormals, the smallest normal and values whose products overflow or
// underflow.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	3 * math.SmallestNonzeroFloat64, -1e-310, 2.2250738585072009e-308, 1e-160, -1e-155,
	math.MaxFloat64, -math.MaxFloat64, 1e300, 1, -1,
}

// edgeVec returns n normal draws, one in oneIn replaced by an edge value.
func edgeVec(rng *rand.Rand, n, oneIn int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(oneIn) == 0 {
			v[i] = edgeFloats[rng.Intn(len(edgeFloats))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// edgeScalars are the multipliers the vector references run with: ordinary
// values, ±0, 1 (the identity the affine epilogue relies on), values that
// push products into the subnormals or past the largest float, ±Inf and
// NaN.
var edgeScalars = []float64{
	0.3710935, -3.0 / 7, 1, -1, 0, math.Copysign(0, -1), 1e-300, 1e300,
	math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// Property: AxpyVec, AddScaled, AddVec, AddInPlace, ScaleVec and
// Dense.Scale match their element loops bit for bit, with the assembly
// kernels on and off, at every length in vecLengths, on operands and
// multipliers with ±0, ±Inf, NaN and subnormals, and on slices that start
// one element past an aligned address. AddVec and AddInPlace, which do no
// multiply, also keep the loop's NaN payloads.
func TestVectorKernelsMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range vecLengths {
		for _, off := range []int{0, 1} {
			x, y := edgeVec(rng, n+off, 4)[off:], edgeVec(rng, n+off, 4)[off:]
			wantAdd := append([]float64(nil), y...)
			addRef(wantAdd, x)
			for _, asm := range gateSettings() {
				got := append([]float64(nil), y...)
				withVectorized(t, asm, func() { AddVec(got, x) })
				if i := diffBits(got, wantAdd); i >= 0 {
					t.Fatalf("n=%d off=%d asm=%v: AddVec differs at %d: %v, reference %v", n, off, asm, i, got[i], wantAdd[i])
				}
				a := NewDenseData(1, n, append([]float64(nil), y...))
				withVectorized(t, asm, func() { AddInPlace(a, NewDenseData(1, n, x)) })
				if i := diffBits(a.Data, wantAdd); i >= 0 {
					t.Fatalf("n=%d off=%d asm=%v: AddInPlace differs at %d: %v, reference %v", n, off, asm, i, a.Data[i], wantAdd[i])
				}
			}
			for _, s := range edgeScalars {
				wantAxpy := append([]float64(nil), y...)
				axpyRef(wantAxpy, s, x)
				wantScale := append([]float64(nil), y...)
				scaleRef(wantScale, s)
				for _, asm := range gateSettings() {
					name := fmt.Sprintf("n=%d off=%d s=%g asm=%v", n, off, s, asm)
					withVectorized(t, asm, func() {
						got := append([]float64(nil), y...)
						AxpyVec(got, s, x)
						if i := diffResults(got, wantAxpy); i >= 0 {
							t.Fatalf("%s: AxpyVec differs at %d: %v, reference %v", name, i, got[i], wantAxpy[i])
						}
						a := NewDenseData(1, n, append([]float64(nil), y...))
						AddScaled(a, s, NewDenseData(1, n, x))
						if i := diffResults(a.Data, wantAxpy); i >= 0 {
							t.Fatalf("%s: AddScaled differs at %d: %v, reference %v", name, i, a.Data[i], wantAxpy[i])
						}
						got = append(got[:0], y...)
						ScaleVec(got, s)
						if i := diffResults(got, wantScale); i >= 0 {
							t.Fatalf("%s: ScaleVec differs at %d: %v, reference %v", name, i, got[i], wantScale[i])
						}
						m := NewDenseData(1, n, append([]float64(nil), y...))
						m.Scale(s)
						if i := diffResults(m.Data, wantScale); i >= 0 {
							t.Fatalf("%s: Dense.Scale differs at %d: %v, reference %v", name, i, m.Data[i], wantScale[i])
						}
					})
				}
			}
		}
	}
	// AddScaled with its operand aliased, as weight decay calls it.
	for _, n := range vecLengths {
		p := edgeVec(rng, n, 4)
		want := append([]float64(nil), p...)
		axpyRef(want, -1e-6, append([]float64(nil), p...))
		for _, asm := range gateSettings() {
			a := NewDenseData(1, n, append([]float64(nil), p...))
			withVectorized(t, asm, func() { AddScaled(a, -1e-6, a) })
			if i := diffResults(a.Data, want); i >= 0 {
				t.Fatalf("n=%d asm=%v: aliased AddScaled differs at %d: %v, reference %v", n, asm, i, a.Data[i], want[i])
			}
		}
	}
}

// newLowRankRef is NewLowRank's classical Gram–Schmidt with its second
// pass, written out one basis row at a time: each coefficient a dot product
// from +0 in ascending column order, each subtraction four basis rows at a
// time grouped ((a0·q0 + a1·q1) + a2·q2) + a3·q3 and the rows left over one
// at a time, as the fit's project does. It returns the basis, the
// coordinates, the low-rank form and which rows added no basis vector.
func newLowRankRef(x *Dense, mean []float64, ridge float64) (basis, coords *Dense, f *LowRank, dropped []bool, err error) {
	n, d := x.Rows, x.Cols
	maxR := min(n, d)
	var q [][]float64
	c := make([][]float64, n)
	dropped = make([]bool, n)
	for i := 0; i < n; i++ {
		c[i] = make([]float64, maxR)
		v := make([]float64, d)
		for k, z := range x.Row(i) {
			v[k] = z - mean[k]
		}
		norm0 := 0.0
		for _, z := range v {
			norm0 += z * z
		}
		if math.IsNaN(norm0) || math.IsInf(norm0, 0) {
			return nil, nil, nil, nil, fmt.Errorf("%w in row %d", ErrNonFinite, i)
		}
		r := len(q)
		for pass := 0; pass < 2; pass++ {
			a := make([]float64, r)
			for j := range a {
				s := 0.0
				for k, z := range v {
					s += q[j][k] * z
				}
				a[j] = s
			}
			j := 0
			for ; j+4 <= r; j += 4 {
				for k := range v {
					v[k] -= a[j]*q[j][k] + a[j+1]*q[j+1][k] + a[j+2]*q[j+2][k] + a[j+3]*q[j+3][k]
				}
			}
			for ; j < r; j++ {
				for k := range v {
					v[k] += -a[j] * q[j][k]
				}
			}
			for j, s := range a {
				c[i][j] += s
			}
		}
		if r == maxR {
			dropped[i] = true
			continue
		}
		nv := 0.0
		for _, z := range v {
			nv += z * z
		}
		if nv <= lowRankDropTol*lowRankDropTol*norm0 {
			dropped[i] = true
			continue
		}
		norm := math.Sqrt(nv)
		c[i][r] = norm
		row := make([]float64, d)
		for k, z := range v {
			row[k] = z / norm
		}
		q = append(q, row)
	}
	r := len(q)
	basis, coords = NewDense(r, d), NewDense(n, r)
	for j, row := range q {
		copy(basis.Row(j), row)
	}
	for i := range c {
		copy(coords.Row(i), c[i][:r])
	}
	ch, err := NewCholesky(Covariance(coords, make([]float64, r), ridge))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return basis, coords, &LowRank{basis: basis, chol: ch, ridge: ridge}, dropped, nil
}

// pivotRows reports which rows added no basis vector, read from the
// coordinates: the row that adds basis vector j is the first with a nonzero
// coordinate j (its remainder's norm), since no earlier row has one.
func pivotRows(coords *Dense) []bool {
	dropped := make([]bool, coords.Rows)
	for i := range dropped {
		dropped[i] = true
	}
	for j := 0; j < coords.Cols; j++ {
		for i := 0; i < coords.Rows; i++ {
			if coords.At(i, j) != 0 {
				dropped[i] = false
				break
			}
		}
	}
	return dropped
}

// lowRankCases are the fits the low-rank reference runs: FACTION's shape
// (rank-16 rows of a 16 → 512 affine map, one component's share of 450
// labelled rows) and the same at CelebA's 40 inputs, whose coordinates
// fill two blocks and part of a third, rank-7 rows, full-rank rows below
// and above the width (at 36 columns, a width that ends in a four-element
// vector block), duplicate and all-zero rows, and rows whose remainder
// sits either side of lowRankDropTol.
func lowRankCases(rng *rand.Rand) map[string]*Dense {
	affine := func(n, in, d int) *Dense {
		z, w := NewDense(n, in), NewDense(in, d)
		for i := range z.Data {
			z.Data[i] = rng.NormFloat64()
		}
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() / math.Sqrt(float64(in))
		}
		x := Mul(z, w)
		for j := 0; j < d; j++ {
			b := rng.NormFloat64()
			for i := 0; i < n; i++ {
				x.Data[i*d+j] += b
			}
		}
		return x
	}
	gauss := func(n, d int) *Dense {
		x := NewDense(n, d)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x
	}
	cases := map[string]*Dense{
		"rank16_112x512": affine(112, 16, 512),
		"rank40_112x512": affine(112, 40, 512),
		"rank7_30x64":    affine(30, 7, 64),
		"full_75x512":    gauss(75, 512),
		"full_40x16":     gauss(40, 16),
		"full_20x36":     gauss(20, 36),
		"full_3x5":       gauss(3, 5),
		"one_row":        gauss(1, 9),
	}
	dup := gauss(13, 33)
	copy(dup.Row(5), dup.Row(2))
	copy(dup.Row(9), dup.Row(2))
	clear(dup.Row(0))
	clear(dup.Row(7))
	cases["duplicate_and_zero"] = dup
	// Rows 6.. are combinations of rows 0–5 plus a direction orthogonal to
	// them, scaled so that, around the zero mean, the remainder is about
	// factor × lowRankDropTol of the row.
	near := gauss(12, 40)
	span, _, err := gramSchmidt(NewDenseData(6, 40, near.Data[:6*40]), make([]float64, 40))
	if err != nil {
		panic(err)
	}
	for i, factor := range []float64{0.5, 0.9, 1.1, 2, 0, 1e3} {
		row := near.Row(6 + i)
		clear(row)
		for k := 0; k < 6; k++ {
			AxpyVec(row, rng.NormFloat64(), near.Row(k))
		}
		out := gauss(1, 40).Row(0)
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < span.Rows; j++ {
				AxpyVec(out, -Dot(span.Row(j), out), span.Row(j))
			}
		}
		AxpyVec(row, factor*lowRankDropTol*Norm2(row)/Norm2(out), out)
	}
	cases["near_drop_tol"] = near
	return cases
}

// Property: NewLowRank matches the written-out Gram–Schmidt bit for bit on
// the basis, the coordinates, the factor of S + ρI and the log-determinant,
// and drops the same rows, with the assembly kernels on and off. Each case
// runs around the rows' mean and around the zero vector, where all-zero
// rows centre to zero and the near-tolerance remainders are as built.
func TestLowRankMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for name, x := range lowRankCases(rng) {
		for mi, mean := range [][]float64{MeanCols(x), make([]float64, x.Cols)} {
			const ridge = 1e-6
			wantQ, wantY, want, wantDropped, err := newLowRankRef(x, mean, ridge)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			for _, asm := range gateSettings() {
				label := fmt.Sprintf("%s mean=%d asm=%v", name, mi, asm)
				var q, y *Dense
				var f *LowRank
				withVectorized(t, asm, func() {
					if q, y, err = gramSchmidt(x, mean); err == nil {
						f, err = NewLowRank(x, mean, ridge)
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if q.Rows != wantQ.Rows || y.Cols != wantY.Cols || f.Rank() != want.Rank() {
					t.Fatalf("%s: rank %d/%d/%d, reference %d", label, q.Rows, y.Cols, f.Rank(), wantQ.Rows)
				}
				for _, c := range []struct {
					what      string
					got, want []float64
				}{
					{"basis", q.Data, wantQ.Data},
					{"coordinates", y.Data, wantY.Data},
					{"NewLowRank basis", f.Basis().Data, want.Basis().Data},
					{"factor", f.L().Data, want.L().Data},
					{"log-det", []float64{f.LogDet()}, []float64{want.LogDet()}},
				} {
					if i := diffBits(c.got, c.want); i >= 0 {
						t.Fatalf("%s: %s differs at %d: %v, reference %v", label, c.what, i, c.got[i], c.want[i])
					}
				}
				for i, d := range pivotRows(y) {
					if d != wantDropped[i] {
						t.Fatalf("%s: row %d dropped=%v, reference %v", label, i, d, wantDropped[i])
					}
				}
				if name == "near_drop_tol" && mi == 1 {
					// The remainders at 0.5 and 0.9 of the tolerance drop,
					// those at 1.1 and 2 do not.
					if got := fmt.Sprint(wantDropped[6:]); got != "[true true false false true false]" {
						t.Fatalf("%s: rows 6–11 dropped %s, not either side of the tolerance", label, got)
					}
				}
			}
		}
	}
}

// Property: packTile fills the lane tile exactly as the transposing loop
// does, with the assembly kernels on and off: every row count of a lane
// block (the kernel takes full blocks only), widths around the four-column
// step, blocks that start mid-matrix, a tile holding another block's values
// beforehand, and NaN payloads, which a value move must keep.
func TestPackTileMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 512, 513} {
		z := NewDenseData(19, d, edgeVec(rng, 19*d, 4))
		for _, lo := range []int{0, 3, 11} {
			for rows := 1; rows <= whitenLanes; rows++ {
				want := make([]float64, d*whitenLanes)
				for lane := 0; lane < rows; lane++ {
					for c := 0; c < d; c++ {
						want[c*whitenLanes+lane] = z.At(lo+lane, c)
					}
				}
				for _, asm := range gateSettings() {
					tile := edgeVec(rng, d*whitenLanes, 2) // stale values
					withVectorized(t, asm, func() { packTile(tile, z, lo, rows) })
					if i := diffBits(tile, want); i >= 0 {
						t.Fatalf("d=%d lo=%d rows=%d asm=%v: tile[%d] = %v, want %v", d, lo, rows, asm, i, tile[i], want[i])
					}
				}
			}
		}
	}
}
