//go:build amd64 && !noasm

#include "textflag.h"

// func whitenQuadAVX32(q *[16]float64, tile, w, mtil []float32, d int)
//
// Float32 twin of whitenQuadAVX at twice the lane width: for the 16
// interleaved float32 lanes of tile (tile[r*16+lane] = z_lane[r]):
//
//	q[lane] = sum_{j<d} t_j^2,  t_j = float64(u_j) - float64(mtil[j]),
//	u_j = sum_{r<=j} w[j*d+r]*tile[r*16+lane]   (float32 accumulation)
//
// The triangular matvec runs entirely in float32 — one VBROADCASTSS feeds two
// 8-wide FMAs per W element, half the bytes and half the vector ops of the
// f64 kernel for the same 16 rows. The reduction then widens: u and the
// whitened mean are converted to float64 (the subtraction is exact, both
// operands being float32 values) and t*t accumulates into four 4-wide float64
// registers. All operations are vertical, so lanes never mix: a row's q
// depends only on its own tile column. One tile row is 64 bytes either way
// (8×f64 or 16×f32), so the stride logic matches the f64 kernel.
//
// Caller guarantees d >= 1 and slices of d*16, d*d and d elements.
TEXT ·whitenQuadAVX32(SB), NOSPLIT, $0-88
	MOVQ q+0(FP), R10
	MOVQ tile_base+8(FP), SI
	MOVQ w_base+32(FP), DI
	MOVQ mtil_base+56(FP), R8
	MOVQ d+80(FP), R9

	VXORPD Y4, Y4, Y4        // q, lanes 0-3   (float64)
	VXORPD Y5, Y5, Y5        // q, lanes 4-7
	VXORPD Y6, Y6, Y6        // q, lanes 8-11
	VXORPD Y7, Y7, Y7        // q, lanes 12-15
	XORQ   R11, R11          // j
	MOVQ   DI, R12           // &w[j*d]

loopj:
	VXORPS Y0, Y0, Y0        // u, lanes 0-7   (float32)
	VXORPS Y1, Y1, Y1        // u, lanes 8-15
	MOVQ   SI, R13           // &tile[r*16]
	XORQ   R14, R14          // r

	// 64-byte loop alignment, as in whitenQuadAVX: the inner loop's speed
	// must not depend on where the linker happens to place this function.
	PCALIGN $64

loopr:
	VBROADCASTSS (R12)(R14*4), Y2
	VFMADD231PS  (R13), Y2, Y0
	VFMADD231PS  32(R13), Y2, Y1
	ADDQ         $64, R13
	INCQ         R14
	CMPQ         R14, R11
	JLE          loopr       // r <= j: lower triangle only

	// Widen u and m̃ to float64 and accumulate (u - m̃)² per 4-lane quarter.
	VBROADCASTSS (R8)(R11*4), X3
	VCVTPS2PD    X3, Y3      // m̃[j] broadcast, float64
	VCVTPS2PD    X0, Y8      // lanes 0-3
	VSUBPD       Y3, Y8, Y8
	VFMADD231PD  Y8, Y8, Y4
	VEXTRACTF128 $1, Y0, X8
	VCVTPS2PD    X8, Y8      // lanes 4-7
	VSUBPD       Y3, Y8, Y8
	VFMADD231PD  Y8, Y8, Y5
	VCVTPS2PD    X1, Y8      // lanes 8-11
	VSUBPD       Y3, Y8, Y8
	VFMADD231PD  Y8, Y8, Y6
	VEXTRACTF128 $1, Y1, X8
	VCVTPS2PD    X8, Y8      // lanes 12-15
	VSUBPD       Y3, Y8, Y8
	VFMADD231PD  Y8, Y8, Y7

	LEAQ (R12)(R9*4), R12    // next w row (float32 elements)
	INCQ R11
	CMPQ R11, R9
	JL   loopj

	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, 64(R10)
	VMOVUPD Y7, 96(R10)
	VZEROUPPER
	RET
