//go:build amd64 && !noasm

package nn

// adamAVX (adam_amd64.s) runs Adam's element loop four elements at a time.
// The caller proves len(p) is a multiple of 4 and g, m and v are as long
// (adamUpdate).
//
//go:noescape
func adamAVX(p, g, m, v []float64, c *adamCoeffs)
