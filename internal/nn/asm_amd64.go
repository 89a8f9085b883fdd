//go:build amd64 && !noasm

package nn

// The network's assembly kernels: Adam's element loop (adam_amd64.s) and the
// rectifier's three passes (relu_amd64.s). They run under mat's one gate,
// mat.Vectorized, and keep the bits of the Go loops they replace.

// adamAVX (adam_amd64.s) runs Adam's element loop four elements at a time.
// The caller proves len(p) is a multiple of 4 and g, m and v are as long
// (adamUpdate).
//
//go:noescape
func adamAVX(p, g, m, v []float64, c *adamCoeffs)

// reluForwardAVX (relu_amd64.s) writes src[i] where it is above 0 and +0
// elsewhere (NaN included), for i < len(dst). reluInferAVX passes NaN
// through instead. reluBackwardAVX writes g[i] where out[i]'s bits are not
// zero and +0 elsewhere. The callers prove len(dst) (len(dx)) is a multiple
// of 4 and the other operands are as long (ReLU).
//
//go:noescape
func reluForwardAVX(dst, src []float64)

//go:noescape
func reluInferAVX(dst, src []float64)

//go:noescape
func reluBackwardAVX(dx, g, out []float64)
