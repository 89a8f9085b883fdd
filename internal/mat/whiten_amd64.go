//go:build amd64 && !noasm

package mat

// AVX2+FMA fast path for the whitened Mahalanobis kernel. Each microkernel
// processes a tile's lanes as two vectors — 2×4 float64 lanes in
// whiten_amd64.s, 2×8 float32 lanes in whiten32_amd64.s — so one broadcast
// per operand element feeds two fused multiply-adds, and the matvec and the
// squared-distance reduction run entirely on vertical vector ops — no
// horizontal sums, and lane independence is structural. The float64 kernel
// runs four output rows per pass over the tile, on either operand shape; the
// float32 one runs the triangular shape one row at a time, and a float32
// stack hands every other pass to the portable kernel.
//
// The fast path is gated at startup by CPUID/XGETBV feature detection (AVX2,
// FMA, and OS ymm-state support). Whichever kernel is selected is used by
// every stack in the process, so outputs are bit-deterministic across runs,
// shard counts and batch compositions on a given machine. FMA contraction
// means the AVX2 kernels' bits differ from the pure-Go kernels' — the
// differential tests compare them under relative tolerance, never equality.

// whitenUseAVX selects the assembly kernels for stacks built from now on. A
// variable (not const) so tests can build stacks on the portable kernels and
// differentially compare the two.
var whitenUseAVX = detectAVX2FMA()

// cpuidex and xgetbv0 are implemented in whiten_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// whitenRowsAVX (whiten_amd64.s) is the float64 assembly kernel, a
// whitenKernel[float64]; whitenQuadAVX32 (whiten32_amd64.s) scores a float32
// tile against a d×d triangle, d ≥ 1.
func whitenRowsAVX(q *[maxWhitenLanes]float64, tile, a, m, init, out []float64, rows, cols int, tri bool)

func whitenQuadAVX32(q *[maxWhitenLanes]float64, tile, w, mtil []float32, d int)

// detectAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernel:
// CPUID.1:ECX advertises FMA, AVX and OSXSAVE; XCR0 confirms the OS saves
// xmm+ymm state; CPUID.7.0:EBX advertises AVX2.
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, c1, _ := cpuidex(1, 0)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // xmm and ymm state enabled
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// whitenKernel64 picks the float64 kernel: the assembly kernel when the CPU
// has AVX2+FMA, the portable one otherwise.
func whitenKernel64() whitenKernel[float64] {
	if whitenUseAVX {
		return whitenRowsAVX
	}
	return whitenRowsGo[float64]
}

// whitenKernel32 is whitenKernel64 for float32 stacks; the float32 kernel
// needs exactly the feature set the float64 one does.
func whitenKernel32() whitenKernel[float32] {
	if whitenUseAVX {
		return whitenRowsAVX32
	}
	return whitenRowsGo[float32]
}

// whitenRowsAVX32 runs a plain triangular pass, the whole of a dense
// factor's scoring, on the float32 assembly and every other pass on the
// portable kernel.
func whitenRowsAVX32(q *[maxWhitenLanes]float64, tile, a, m, init, out []float32, rows, cols int, tri bool) {
	if tri && rows > 0 && len(init) == 0 && len(out) == 0 {
		whitenQuadAVX32(q, tile, a, m, rows)
		return
	}
	whitenRowsGo(q, tile, a, m, init, out, rows, cols, tri)
}
