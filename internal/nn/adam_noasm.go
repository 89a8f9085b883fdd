//go:build !amd64 || noasm

package nn

// Without the assembly kernels mat.Vectorized is always false and Adam runs
// its Go loop; the stub keeps the dispatch building.

func adamAVX(p, g, m, v []float64, c *adamCoeffs) {
	panic("nn: no assembly kernels in this build")
}
