//go:build !amd64 || noasm

package mat

// On non-amd64 platforms (or under -tags noasm, the CI leg that keeps the
// portable loops tested on AVX2 runners) the assembly kernels are absent:
// useAsm stays false, so every product and every stack runs the Go loops.
// The stubs keep the shared dispatch code building; nothing calls them.

const cpuHasAsm = false

func whitenRowsAVX(q *[whitenLanes]float64, tile, a, m, init, out []float64, rows, cols int, tri bool) {
	panic("mat: no assembly kernels in this build")
}

func rowUpdateAVX(d, a []float64, as int, b []float64, bs, terms int) {
	panic("mat: no assembly kernels in this build")
}

func headRowsAVX(d, a, b []float64, rows, k int) {
	panic("mat: no assembly kernels in this build")
}

func packTileAVX(tile, z []float64, cols int) {
	panic("mat: no assembly kernels in this build")
}

func headGradAVX(d, a []float64, as int, b []float64, rows, terms int) {
	panic("mat: no assembly kernels in this build")
}

func dotGroupsAVX(a, q, v []float64, groups int) {
	panic("mat: no assembly kernels in this build")
}

func axpyAVX(y []float64, s float64, x []float64) {
	panic("mat: no assembly kernels in this build")
}

func addAVX(y, x []float64) {
	panic("mat: no assembly kernels in this build")
}

func scaleAVX(v []float64, s float64) {
	panic("mat: no assembly kernels in this build")
}

func subRows4AVX(v, q []float64, d int, a0, a1, a2, a3 float64) {
	panic("mat: no assembly kernels in this build")
}
