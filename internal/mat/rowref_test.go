package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The product kernels' earlier loops, kept as bit-identity references. The
// narrow dot-per-output path, the four-term row updates and the written-out
// dot in mulTBShard each start every output element from +0 and add the same
// products in the same ascending inner order as these, rounding after every
// multiply and every add, so the results match bit for bit.

// mulRef is the plain ikj kernel: one single-term pass over each output row
// per inner index.
func mulRef(a, b *Dense) *Dense {
	n, k, p := a.Rows, a.Cols, b.Cols
	dst := NewDense(n, p)
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*p : (i+1)*p]
		for l := 0; l < k; l++ {
			av := arow[l]
			brow := b.Data[l*p : (l+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

// mulPackedRef is the packed, cache-blocked kernel with single-term passes.
func mulPackedRef(a, b *Dense) *Dense {
	n, k, p := a.Rows, a.Cols, b.Cols
	dst := NewDense(n, p)
	panel := make([]float64, packLB*packJB)
	for j0 := 0; j0 < p; j0 += packJB {
		j1 := min(j0+packJB, p)
		jw := j1 - j0
		for l0 := 0; l0 < k; l0 += packLB {
			l1 := min(l0+packLB, k)
			for l := l0; l < l1; l++ {
				copy(panel[(l-l0)*jw:(l-l0+1)*jw], b.Data[l*p+j0:l*p+j1])
			}
			for i := 0; i < n; i++ {
				arow := a.Data[i*k : (i+1)*k]
				drow := dst.Data[i*p+j0 : i*p+j1]
				for l := l0; l < l1; l++ {
					av := arow[l]
					prow := panel[(l-l0)*jw : (l-l0+1)*jw]
					for j, bv := range prow {
						drow[j] += av * bv
					}
				}
			}
		}
	}
	return dst
}

// mulTARef accumulates aᵀ × b one row of a at a time.
func mulTARef(a, b *Dense) *Dense {
	n, k, p := a.Rows, a.Cols, b.Cols
	dst := NewDense(k, p)
	for l := 0; l < n; l++ {
		arow := a.Data[l*k : (l+1)*k]
		brow := b.Data[l*p : (l+1)*p]
		for i := 0; i < k; i++ {
			av := arow[i]
			orow := dst.Data[i*p : (i+1)*p]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// mulTBRef computes each element of a × bᵀ with one Dot call.
func mulTBRef(a, b *Dense) *Dense {
	k := a.Cols
	dst := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		for j := 0; j < b.Rows; j++ {
			dst.Data[i*b.Rows+j] = Dot(arow, b.Data[j*k:(j+1)*k])
		}
	}
	return dst
}

// specialDense fills an r×c matrix with normal draws, one in eight replaced
// by ±0 and, when specials is set, about one in a hundred by NaN or ±Inf.
func specialDense(rng *rand.Rand, r, c int, specials bool) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		switch u := rng.Intn(800); {
		case u < 50:
			m.Data[i] = 0
		case u < 100:
			m.Data[i] = math.Copysign(0, -1)
		case specials && u < 103:
			m.Data[i] = math.NaN()
		case specials && u < 106:
			m.Data[i] = math.Inf(1)
		case specials && u < 109:
			m.Data[i] = math.Inf(-1)
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// diffResults returns the first index where got and want differ in bits, or
// −1, counting any two NaNs as equal. When both operands of an add are NaN,
// x86 returns the first operand's payload, and which operand comes first is
// the register allocator's choice (IEEE 754 leaves the payload unspecified):
// the old row update added the running sum to the product, the dot adds the
// product to the running sum. Every other result, ±0 and ±Inf included, must
// match exactly.
func diffResults(got, want []float64) int {
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

// withVectorized runs f with the assembly kernels switched on or off.
func withVectorized(t testing.TB, on bool, f func()) {
	t.Helper()
	was := SetVectorized(on)
	defer SetVectorized(was)
	f()
}

// gateSettings are the assembly-gate settings this machine can run: off,
// and on where the CPU has the kernels.
func gateSettings() []bool {
	if cpuHasAsm {
		return []bool{false, true}
	}
	return []bool{false}
}

// Property: MulInto, MulTAInto and MulTBInto match the reference loops bit
// for bit on every dispatch path, with the assembly kernels on and off:
// output widths through the narrow limit and past it, widths that end in
// each of the row-update kernel's column blocks (7, 8, 9, 31, 32, 33, 100,
// 512 and more than one transposed MulTB panel), inner lengths that are not
// multiples of four (and one past a 128-deep panel), row counts below
// packMinRows and around the head kernel's four-row block, the plain and
// the forced packed kernels, at parallelism 1 and 2 (every product sharded,
// so a MulTA shard owns fewer rows than a has columns), with ±0, NaN and
// ±Inf operands. Inner lengths 1 and 2 against 512 and 520 columns are the
// head's input gradient in MulTB.
func TestRowKernelsMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	paths := []struct {
		name          string
		minRows, flop int
	}{
		{"default", packMinRows, packFlopThreshold},
		{"packed", 1, 0},
		{"plain", 1 << 30, 1 << 62},
	}
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 100, 130, 512, 520}
	for _, n := range []int{1, 3, 4, 7, 9, 22} {
		for _, k := range []int{0, 1, 2, 3, 5, 7, 13, 131} {
			for _, p := range widths {
				specials := (n+k+p)%2 == 0
				a, b := specialDense(rng, n, k, specials), specialDense(rng, k, p, specials)
				c, bt := specialDense(rng, n, p, specials), specialDense(rng, p, k, specials)
				want, wantTA, wantTB := mulRef(a, b), mulTARef(a, c), mulTBRef(a, bt)
				for _, asm := range gateSettings() {
					for _, par := range []int{1, 2} {
						for _, path := range paths {
							name := fmt.Sprintf("%dx%dx%d specials=%v asm=%v par=%d %s", n, k, p, specials, asm, par, path.name)
							var got, gotTA, gotTB *Dense
							withVectorized(t, asm, func() {
								withParallelism(t, par, 1, func() {
									withPacking(t, path.minRows, path.flop, func() {
										got, gotTA, gotTB = Mul(a, b), MulTA(a, c), MulTB(a, bt)
									})
								})
							})
							if i := diffResults(got.Data, want.Data); i >= 0 {
								t.Fatalf("%s: MulInto differs at %d: %v, reference %v", name, i, got.Data[i], want.Data[i])
							}
							if i := diffResults(gotTA.Data, wantTA.Data); i >= 0 {
								t.Fatalf("%s: MulTAInto differs at %d: %v, reference %v", name, i, gotTA.Data[i], wantTA.Data[i])
							}
							if i := diffResults(gotTB.Data, wantTB.Data); i >= 0 {
								t.Fatalf("%s: MulTBInto differs at %d: %v, reference %v", name, i, gotTB.Data[i], wantTB.Data[i])
							}
						}
					}
				}
				if i := diffResults(mulPackedRef(a, b).Data, want.Data); i >= 0 {
					t.Fatalf("%dx%dx%d: packed reference differs from the plain one at %d", n, k, p, i)
				}
			}
		}
	}
	// One MulTA shard that owns rows [7, 19) of a 40-row product: its
	// coefficients come from columns 7–18 of a, whose other columns it
	// must not read.
	a, c := specialDense(rng, 5, 40, true), specialDense(rng, 5, 33, true)
	wantTA := mulTARef(a, c)
	for _, asm := range gateSettings() {
		dst := NewDense(40, 33)
		withVectorized(t, asm, func() { mulTAShard(shard{dst: dst, a: a, b: c, lo: 7, hi: 19}) })
		for i := 0; i < 40; i++ {
			got, want := dst.Row(i), wantTA.Row(i)
			if i < 7 || i >= 19 {
				want = make([]float64, 33) // rows outside the shard stay untouched
			}
			if j := diffResults(got, want); j >= 0 {
				t.Fatalf("asm=%v: MulTA shard [7, 19) row %d differs at %d: %v, reference %v", asm, i, j, got[j], want[j])
			}
		}
	}
}
