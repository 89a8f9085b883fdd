//go:build amd64 && !noasm

package mat

import (
	"math"
	"math/rand"
	"testing"
)

// Differential test of the AVX2+FMA microkernels against the portable Go
// kernels on the same tiles. FMA contracts the multiply-add, so bits differ;
// agreement is asserted under relative tolerance. Both float32 kernels
// accumulate the matvec in float32 and the reduction in float64, so their
// tolerance is sized to the f32 accumulation error (~√d·ε₃₂), far looser
// than the f64 kernels' 1e-12. Skipped (vacuous) on machines without
// AVX2+FMA, where every stack runs the Go kernels.
func TestWhitenQuadAVXMatchesGo(t *testing.T) {
	testWhitenQuadAVXMatchesGo(t, whitenQuadAVX, whitenQuadTileGo, whitenTileBytes/8, 1e-12)
}

func TestWhitenQuadAVX32MatchesGo(t *testing.T) {
	testWhitenQuadAVXMatchesGo(t, whitenQuadAVX32, whitenQuadTile32Go, whitenTileBytes/4, 1e-4)
}

func testWhitenQuadAVXMatchesGo[T float32 | float64](t *testing.T, asm, pure whitenKernel[T], lanes int, tol float64) {
	if !whitenUseAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := rand.New(rand.NewSource(43))
	for _, d := range []int{1, 2, 3, 7, 8, 15, 24, 64, 65} {
		tile := make([]T, d*lanes)
		for i := range tile {
			tile[i] = T(2 * rng.NormFloat64())
		}
		w := make([]T, d*d)
		mtil := make([]T, d)
		for j := 0; j < d; j++ {
			for r := 0; r <= j; r++ {
				w[j*d+r] = T(rng.NormFloat64())
			}
			mtil[j] = T(rng.NormFloat64())
		}
		var qAsm, qGo [maxWhitenLanes]float64
		asm(&qAsm, tile, w, mtil, d)
		pure(&qGo, tile, w, mtil, d)
		for lane := 0; lane < lanes; lane++ {
			rel := math.Abs(qAsm[lane]-qGo[lane]) / (1 + math.Abs(qGo[lane]))
			if rel > tol || math.IsNaN(qAsm[lane]) != math.IsNaN(qGo[lane]) {
				t.Fatalf("d=%d lane %d: asm %v vs go %v (rel %g)", d, lane, qAsm[lane], qGo[lane], rel)
			}
		}
		// The assembly kernel must be deterministic call to call.
		var again [maxWhitenLanes]float64
		asm(&again, tile, w, mtil, d)
		if again != qAsm {
			t.Fatalf("d=%d: asm kernel not deterministic across calls", d)
		}
	}
}

// A stack built with the assembly kernels switched off must keep
// MahalanobisInto within tolerance of one built with them on, over a full
// batch — the whole-pipeline version of the per-tile differential above.
func TestMahalanobisIntoAVXvsGo(t *testing.T) { testMahalanobisIntoAVXvsGo[float64](t, 1e-10) }

func TestMahalanobisInto32AVXvsGo(t *testing.T) { testMahalanobisIntoAVXvsGo[float32](t, 1e-4) }

func testMahalanobisIntoAVXvsGo[T float32 | float64](t *testing.T, tol float64) {
	if !whitenUseAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	const d, k, n = 40, 3, 53
	rng := rand.New(rand.NewSource(53))
	z := NewDense(n, d)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
	}
	stack, _, _ := whitenFixtureStack[T](t, d, k, 10, 47)
	avx := make([]float64, n*k)
	stack.MahalanobisInto(avx, z)
	// The kernel is picked when a stack is built: rebuild the same stack with
	// the assembly kernels switched off.
	whitenUseAVX = false
	defer func() { whitenUseAVX = true }()
	goStack, _, _ := whitenFixtureStack[T](t, d, k, 10, 47)
	pure := make([]float64, n*k)
	goStack.MahalanobisInto(pure, z)
	for i := range avx {
		rel := math.Abs(avx[i]-pure[i]) / (1 + math.Abs(pure[i]))
		if rel > tol {
			t.Fatalf("dst[%d]: avx %v vs go %v (rel %g)", i, avx[i], pure[i], rel)
		}
	}
}
