//go:build !amd64 || noasm

package mat

// On non-amd64 platforms (or under -tags noasm, the CI leg that keeps the
// fallbacks differentially tested on AVX2 runners) every stack runs the
// portable kernel of its width.

func whitenKernel64() whitenKernel[float64] { return whitenRowsGo[float64] }

func whitenKernel32() whitenKernel[float32] { return whitenRowsGo[float32] }
