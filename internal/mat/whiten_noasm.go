//go:build !amd64 || noasm

package mat

// On non-amd64 platforms (or under -tags noasm, the CI leg that keeps the
// fallback differentially tested on AVX2 runners) every stack runs the
// portable kernel.

func selectWhitenKernel() whitenKernel { return whitenRowsGo }
