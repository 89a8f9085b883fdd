//go:build amd64 && !noasm

package mat

// The assembly kernels: the whitened Mahalanobis kernel and its tile
// transpose (whiten_amd64.s); the row update, the two-class head's kernels
// and the grouped dot products of the low-rank fit (rows_amd64.s); and the
// element kernels behind AxpyVec, AddVec, ScaleVec and the fit's
// subtraction (vec_amd64.s). All of them run on 256-bit vectors and are
// gated at startup by one CPUID/XGETBV check (AVX2, FMA, and OS ymm-state
// support), read through useAsm (asm.go).
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
// The other kernels use no FMA: they round after every multiply and every
// add, lanes run across output elements only, and each element adds its
// terms in the order of the Go loop it replaces, so their bits are the Go
// loops' (DESIGN.md §7, TestRowKernelsMatchReferenceBits,
// TestVectorKernelsMatchReferenceBits, TestLowRankMatchesReferenceBits).

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

// packTileAVX (whiten_amd64.s) transposes eight rows of z, each len(z)/8
// long, into the column-major tile for columns c < cols: tile[c·8+lane] =
// z[lane·len(z)/8+c]. The caller proves cols is a multiple of 4,
// len(z)/8 ≥ cols and len(tile) ≥ 8·cols (packTile).
//
//go:noescape
func packTileAVX(tile, z []float64, cols int)

// headGradAVX (rows_amd64.s) writes d[2i+j] = Σ_{l<terms} a[l·as+i]·b[2l+j]
// for i < rows and j < 2, each sum from +0 in ascending l. The caller
// proves rows is a multiple of 4, terms ≥ 1, len(d) ≥ 2·rows,
// (terms−1)·as + rows ≤ len(a) and len(b) ≥ 2·terms (mulTAShard).
//
//go:noescape
func headGradAVX(d, a []float64, as int, b []float64, rows, terms int)

// dotGroupsAVX (rows_amd64.s) writes a[4g+m] = Σ_c q[4·len(v)·g+4c+m]·v[c]
// for g < groups and m < 4, each sum from +0 in ascending c: the dot
// products of v with a basis stored four rows interleaved. The caller
// proves len(a) ≥ 4·groups and len(q) ≥ 4·len(v)·groups (project).
//
//go:noescape
func dotGroupsAVX(a, q, v []float64, groups int)

// axpyAVX (vec_amd64.s) computes y[i] += s·x[i] for i < len(y). The caller
// proves len(y) is a multiple of 4 and len(x) ≥ len(y) (AxpyVec).
//
//go:noescape
func axpyAVX(y []float64, s float64, x []float64)

// addAVX (vec_amd64.s) computes y[i] += x[i] for i < len(y). The caller
// proves len(y) is a multiple of 4 and len(x) ≥ len(y) (AddVec).
//
//go:noescape
func addAVX(y, x []float64)

// scaleAVX (vec_amd64.s) computes v[i] *= s. The caller proves len(v) is a
// multiple of 4 (ScaleVec).
//
//go:noescape
func scaleAVX(v []float64, s float64)

// subRows4AVX (vec_amd64.s) computes
// v[c] −= ((a0·q[c] + a1·q[d+c]) + a2·q[2d+c]) + a3·q[3d+c] for c < len(v).
// The caller proves len(v) is a multiple of 4 and len(q) ≥ 3d + len(v)
// (project).
//
//go:noescape
func subRows4AVX(v, q []float64, d int, a0, a1, a2, a3 float64)

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
