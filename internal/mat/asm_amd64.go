//go:build amd64 && !noasm

package mat

// The assembly kernels: the whitened Mahalanobis kernel (whiten_amd64.s),
// and the row update and the two-column head kernel of the matrix products
// (rows_amd64.s). All of them run on 256-bit vectors and are gated at
// startup by one CPUID/XGETBV check (AVX2, FMA, and OS ymm-state support),
// read through useAsm (asm.go).
//
// The whitened kernel processes a tile's 8 float64 lanes as two 4-lane
// vectors, so one broadcast per operand element feeds two fused
// multiply-adds, and the matvec and the squared-distance reduction run
// entirely on vertical vector ops — no horizontal sums, and lane
// independence is structural. It runs four output rows per pass over the
// tile, on either operand shape. FMA contraction means its bits differ from
// the pure-Go kernel's — the differential tests compare them under relative
// tolerance, never equality. A stack keeps the kernel it was built with, so
// every output of a stack is bit-deterministic across runs, shard counts
// and batch compositions on a given machine.
//
// The product kernels use no FMA: they round after every multiply and every
// add, lanes run across output elements only, and each element adds its
// terms in ascending inner index, so their bits are the Go loops' (DESIGN.md
// §7, TestRowKernelsMatchReferenceBits).

// cpuHasAsm reports whether this CPU and OS can run the assembly kernels.
var cpuHasAsm = detectAVX2FMA()

// cpuidex and xgetbv0 are implemented in whiten_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// whitenRowsAVX (whiten_amd64.s) is the assembly kernel, a whitenKernel.
func whitenRowsAVX(q *[whitenLanes]float64, tile, a, m, init, out []float64, rows, cols int, tri bool)

// rowUpdateAVX (rows_amd64.s) adds Σ_{l<terms} a[l·as]·b[l·bs+j] to every
// d[j], l ascending. The caller proves terms ≥ 1, (terms−1)·as < len(a) and
// (terms−1)·bs + len(d) ≤ len(b) (rowUpdate).
//
//go:noescape
func rowUpdateAVX(d, a []float64, as int, b []float64, bs, terms int)

// headRowsAVX (rows_amd64.s) writes d[2i+j] = Σ_{l<k} a[i·k+l]·b[2l+j] for
// i < rows and j < 2, each sum from +0 in ascending l. The caller proves
// rows is a multiple of 4, len(d) ≥ 2·rows, len(a) ≥ rows·k and
// len(b) ≥ 2·k (mulShardNarrow).
//
//go:noescape
func headRowsAVX(d, a, b []float64, rows, k int)

// detectAVX2FMA reports whether the CPU and OS support the assembly kernels:
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
