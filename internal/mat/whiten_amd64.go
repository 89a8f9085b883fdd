//go:build amd64 && !noasm

package mat

// AVX2+FMA fast path for the whitened Mahalanobis kernel. The microkernel
// (whiten_amd64.s) processes a tile's 8 float64 lanes as two 4-lane vectors,
// so one broadcast per operand element feeds two fused multiply-adds, and
// the matvec and the squared-distance reduction run entirely on vertical
// vector ops — no horizontal sums, and lane independence is structural. It
// runs four output rows per pass over the tile, on either operand shape.
//
// The fast path is gated at startup by CPUID/XGETBV feature detection (AVX2,
// FMA, and OS ymm-state support). Whichever kernel is selected is used by
// every stack in the process, so outputs are bit-deterministic across runs,
// shard counts and batch compositions on a given machine. FMA contraction
// means the AVX2 kernel's bits differ from the pure-Go kernel's — the
// differential tests compare them under relative tolerance, never equality.

// whitenUseAVX selects the assembly kernel for stacks built from now on. A
// variable (not const) so tests can build stacks on the portable kernel and
// differentially compare the two.
var whitenUseAVX = detectAVX2FMA()

// cpuidex and xgetbv0 are implemented in whiten_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// whitenRowsAVX (whiten_amd64.s) is the assembly kernel, a whitenKernel.
func whitenRowsAVX(q *[whitenLanes]float64, tile, a, m, init, out []float64, rows, cols int, tri bool)

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

// selectWhitenKernel picks the assembly kernel when the CPU has AVX2+FMA,
// the portable one otherwise.
func selectWhitenKernel() whitenKernel {
	if whitenUseAVX {
		return whitenRowsAVX
	}
	return whitenRowsGo
}
