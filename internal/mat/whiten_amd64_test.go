//go:build amd64 && !noasm

package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// whitenRowsFMARef is whitenRowsAVX written out in Go with math.FMA in the
// kernel's order: each u_j one fused chain in ascending c starting from init
// (or 0), t_j = u_j − m[j], and q one fused chain of t_j² in ascending j.
// FMA rounds once, so it reproduces the assembly's bits whether the
// assembly runs a row alone or four rows at a time.
func whitenRowsFMARef(q *[whitenLanes]float64, tile, a, m, init, out []float64, rows, cols int, tri bool) {
	const lanes = whitenLanes
	var qa [lanes]float64
	for j := 0; j < rows; j++ {
		ext := cols
		if tri {
			ext = j + 1
		}
		var u [lanes]float64
		if len(init) > 0 {
			copy(u[:], init[j*lanes:])
		}
		for c := 0; c < ext; c++ {
			for lane := range u {
				u[lane] = math.FMA(a[j*cols+c], tile[c*lanes+lane], u[lane])
			}
		}
		for lane, v := range u {
			t := v - m[j]
			qa[lane] = math.FMA(t, t, qa[lane])
			if len(out) > 0 {
				out[j*lanes+lane] = t
			}
		}
	}
	*q = qa
}

// whitenCase is one kernel call's operands: a triangle (rows = cols) or a
// full rows×cols block, with or without a starting tile and an output tile.
type whitenCase struct {
	tile, a, m, init []float64
	rows, cols       int
	tri, out         bool
}

func randomWhitenCase(rng *rand.Rand, rows, cols, lanes int, tri, withInit, out bool) whitenCase {
	if tri {
		cols = rows
	}
	fill := func(n int, scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	c := whitenCase{tile: fill(cols*lanes, 2), a: fill(rows*cols, 1), m: fill(rows, 1), rows: rows, cols: cols, tri: tri, out: out}
	if tri {
		for j := 0; j < rows; j++ {
			clear(c.a[j*cols+j+1 : (j+1)*cols])
		}
	}
	if withInit {
		c.init = fill(rows*lanes, 2)
	}
	return c
}

func (c whitenCase) run(k whitenKernel, lanes int) ([whitenLanes]float64, []float64) {
	var q [whitenLanes]float64
	var out []float64
	if c.out {
		out = make([]float64, c.rows*lanes)
	}
	k(&q, c.tile, c.a, c.m, c.init, out, c.rows, c.cols, c.tri)
	return q, out
}

// The float64 assembly kernel is pinned bit for bit to the math.FMA
// reference on every operand shape it runs: triangles of every size 1–70
// and 512–515 (four-row blocks with every leftover count), and full blocks
// with and without a starting tile and an output tile, cols 0 included.
// The reference computes one row at a time, so on a triangle with neither
// it is the single-row kernel a dense component used to run, and dense
// components keep their bits.
func TestWhitenRowsAVXMatchesFMAReference(t *testing.T) {
	if !cpuHasAsm {
		t.Skip("no AVX2+FMA on this machine")
	}
	const lanes = whitenTileBytes / 8
	rng := rand.New(rand.NewSource(61))
	sizes := []int{}
	for d := 1; d <= 70; d++ {
		sizes = append(sizes, d)
	}
	sizes = append(sizes, 512, 513, 514, 515)
	check := func(name string, c whitenCase) {
		t.Helper()
		q, out := c.run(whitenRowsAVX, lanes)
		wq, wout := c.run(whitenRowsFMARef, lanes)
		if i := diffBits(q[:], wq[:]); i >= 0 {
			t.Fatalf("%s: q[%d] = %v, reference %v", name, i, q[i], wq[i])
		}
		if i := diffBits(out, wout); i >= 0 {
			t.Fatalf("%s: out[%d] = %v, reference %v", name, i, out[i], wout[i])
		}
	}
	for _, d := range sizes {
		check(fmt.Sprintf("triangle d=%d", d), randomWhitenCase(rng, d, d, lanes, true, false, false))
		cols := rng.Intn(80)
		if d >= 512 {
			cols = 1 + rng.Intn(200)
		}
		for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			check(fmt.Sprintf("full %dx%d init=%v out=%v", d, cols, flags[0], flags[1]),
				randomWhitenCase(rng, d, cols, lanes, false, flags[0], flags[1]))
		}
	}
	check("triangle with output", randomWhitenCase(rng, 13, 13, lanes, true, true, true))
	check("no rows", randomWhitenCase(rng, 0, 5, lanes, false, false, true))
}

// Differential test of the AVX2+FMA microkernel against the portable Go
// kernel on the same tiles. FMA contracts the multiply-add, so bits differ;
// agreement is asserted under relative tolerance. Skipped (vacuous) on
// machines without AVX2+FMA, where every stack runs the Go kernel.
func TestWhitenQuadAVXMatchesGo(t *testing.T) {
	if !cpuHasAsm {
		t.Skip("no AVX2+FMA on this machine")
	}
	const lanes, tol = whitenLanes, 1e-12
	rng := rand.New(rand.NewSource(43))
	for _, d := range []int{1, 2, 3, 7, 8, 15, 24, 64, 65} {
		for _, c := range []whitenCase{
			randomWhitenCase(rng, d, d, lanes, true, false, false),
			randomWhitenCase(rng, d, 1+rng.Intn(70), lanes, false, true, true),
		} {
			qAsm, outAsm := c.run(whitenRowsAVX, lanes)
			qGo, outGo := c.run(whitenRowsGo, lanes)
			for lane := 0; lane < lanes; lane++ {
				rel := math.Abs(qAsm[lane]-qGo[lane]) / (1 + math.Abs(qGo[lane]))
				if rel > tol || math.IsNaN(qAsm[lane]) != math.IsNaN(qGo[lane]) {
					t.Fatalf("d=%d tri=%v lane %d: asm %v vs go %v (rel %g)", d, c.tri, lane, qAsm[lane], qGo[lane], rel)
				}
			}
			for i := range outAsm {
				a, g := outAsm[i], outGo[i]
				if rel := math.Abs(a-g) / (1 + math.Abs(g)); rel > tol {
					t.Fatalf("d=%d out[%d]: asm %v vs go %v (rel %g)", d, i, a, g, rel)
				}
			}
			// The assembly kernel must be deterministic call to call.
			if again, _ := c.run(whitenRowsAVX, lanes); again != qAsm {
				t.Fatalf("d=%d: asm kernel not deterministic across calls", d)
			}
		}
	}
}

// A stack built with the assembly kernel switched off must keep
// MahalanobisInto within tolerance of one built with it on, over a full
// batch — the whole-pipeline version of the per-tile differential above.
func TestMahalanobisIntoAVXvsGo(t *testing.T) {
	if !cpuHasAsm {
		t.Skip("no AVX2+FMA on this machine")
	}
	const d, k, n, tol = 40, 3, 53, 1e-10
	rng := rand.New(rand.NewSource(53))
	z := NewDense(n, d)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	stack, _, _ := whitenFixtureStack(t, d, k, 10, 47)
	avx := make([]float64, n*k)
	stack.MahalanobisInto(avx, z)
	// The kernel is picked when a stack is built: rebuild the same stack with
	// the assembly kernel switched off.
	was := SetVectorized(false)
	defer SetVectorized(was)
	goStack, _, _ := whitenFixtureStack(t, d, k, 10, 47)
	pure := make([]float64, n*k)
	goStack.MahalanobisInto(pure, z)
	for i := range avx {
		rel := math.Abs(avx[i]-pure[i]) / (1 + math.Abs(pure[i]))
		if rel > tol {
			t.Fatalf("dst[%d]: avx %v vs go %v (rel %g)", i, avx[i], pure[i], rel)
		}
	}
}
