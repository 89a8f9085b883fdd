//go:build !amd64 || noasm

package mat

// On non-amd64 platforms (or under -tags noasm, the CI leg that keeps the
// fallbacks differentially tested on AVX2 runners) every stack runs the
// portable kernel of its width.

func whitenKernel64(int) whitenKernel[float64] { return whitenQuadTileGo }

func whitenKernel32(int) whitenKernel[float32] { return whitenQuadTile32Go }
