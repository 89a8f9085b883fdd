//go:build !amd64 || noasm

package nn

// Without the assembly kernels mat.Vectorized is always false and Adam and
// the rectifier run their Go loops; the stubs keep the dispatch building.

func adamAVX(p, g, m, v []float64, c *adamCoeffs) {
	panic("nn: no assembly kernels in this build")
}

func reluAVX(dst, src []float64) {
	panic("nn: no assembly kernels in this build")
}

func reluBackwardAVX(dx, g, out []float64) {
	panic("nn: no assembly kernels in this build")
}
