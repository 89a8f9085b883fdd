//go:build amd64 && !noasm

#include "textflag.h"

// The rectifier's kernels select with 256-bit integer masks, as the Go
// loops select with integer masks: each lane compares the bits of one
// float64 as a signed 64-bit integer (VPCMPGTQ, VPCMPEQQ) and keeps or
// clears them (VPAND, VPANDN). There is no arithmetic, so every output has
// exactly the bits the Go loop selects, NaN payloads included. Sixteen
// elements per pass, then four; the Go wrappers run the len mod 4 tail.

// func reluForwardAVX(dst, src []float64)
//
//	dst[i] = src[i] if 0 < bits(src[i]) <= bits(+Inf) (signed), else +0
//
// The kept values are exactly those above 0: +0, −0, every negative value
// and NaN of either sign map to +0. Caller guarantees len(dst) is a
// multiple of 4 and len(src) >= len(dst).
TEXT ·reluForwardAVX(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VPXOR        Y15, Y15, Y15
	MOVQ         $0x7FF0000000000001, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14         // one past +Inf's bits
	PCALIGN      $64

fwd16:
	CMPQ     CX, $16
	JL       fwd4
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y1
	VMOVDQU  64(SI), Y2
	VMOVDQU  96(SI), Y3
	VPCMPGTQ Y15, Y0, Y4          // bits > 0
	VPCMPGTQ Y15, Y1, Y5
	VPCMPGTQ Y15, Y2, Y6
	VPCMPGTQ Y15, Y3, Y7
	VPCMPGTQ Y0, Y14, Y8          // bits < +Inf's + 1
	VPCMPGTQ Y1, Y14, Y9
	VPCMPGTQ Y2, Y14, Y10
	VPCMPGTQ Y3, Y14, Y11
	VPAND    Y8, Y4, Y4
	VPAND    Y9, Y5, Y5
	VPAND    Y10, Y6, Y6
	VPAND    Y11, Y7, Y7
	VPAND    Y0, Y4, Y4
	VPAND    Y1, Y5, Y5
	VPAND    Y2, Y6, Y6
	VPAND    Y3, Y7, Y7
	VMOVDQU  Y4, (DI)
	VMOVDQU  Y5, 32(DI)
	VMOVDQU  Y6, 64(DI)
	VMOVDQU  Y7, 96(DI)
	ADDQ     $128, SI
	ADDQ     $128, DI
	SUBQ     $16, CX
	JMP      fwd16

fwd4:
	TESTQ    CX, CX
	JZ       fwdDone
	VMOVDQU  (SI), Y0
	VPCMPGTQ Y15, Y0, Y4
	VPCMPGTQ Y0, Y14, Y8
	VPAND    Y8, Y4, Y4
	VPAND    Y0, Y4, Y4
	VMOVDQU  Y4, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	JMP      fwd4

fwdDone:
	VZEROUPPER
	RET

// func reluInferAVX(dst, src []float64)
//
//	dst[i] = src[i] if bits(src[i]) > 0 (signed) or |bits(src[i])| > bits(+Inf), else +0
//
// That is, src[i] unless src[i] <= 0: NaN of either sign passes through.
// Caller guarantees len(dst) is a multiple of 4 and len(src) >= len(dst).
TEXT ·reluInferAVX(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VPXOR        Y15, Y15, Y15
	MOVQ         $0x7FF0000000000000, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14         // +Inf's bits
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13         // everything but the sign
	PCALIGN      $64

inf16:
	CMPQ     CX, $16
	JL       inf4
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y1
	VMOVDQU  64(SI), Y2
	VMOVDQU  96(SI), Y3
	VPAND    Y13, Y0, Y4          // |bits|
	VPAND    Y13, Y1, Y5
	VPAND    Y13, Y2, Y6
	VPAND    Y13, Y3, Y7
	VPCMPGTQ Y14, Y4, Y4          // NaN: |bits| > +Inf's
	VPCMPGTQ Y14, Y5, Y5
	VPCMPGTQ Y14, Y6, Y6
	VPCMPGTQ Y14, Y7, Y7
	VPCMPGTQ Y15, Y0, Y8          // bits > 0
	VPCMPGTQ Y15, Y1, Y9
	VPCMPGTQ Y15, Y2, Y10
	VPCMPGTQ Y15, Y3, Y11
	VPOR     Y8, Y4, Y4
	VPOR     Y9, Y5, Y5
	VPOR     Y10, Y6, Y6
	VPOR     Y11, Y7, Y7
	VPAND    Y0, Y4, Y4
	VPAND    Y1, Y5, Y5
	VPAND    Y2, Y6, Y6
	VPAND    Y3, Y7, Y7
	VMOVDQU  Y4, (DI)
	VMOVDQU  Y5, 32(DI)
	VMOVDQU  Y6, 64(DI)
	VMOVDQU  Y7, 96(DI)
	ADDQ     $128, SI
	ADDQ     $128, DI
	SUBQ     $16, CX
	JMP      inf16

inf4:
	TESTQ    CX, CX
	JZ       infDone
	VMOVDQU  (SI), Y0
	VPAND    Y13, Y0, Y4
	VPCMPGTQ Y14, Y4, Y4
	VPCMPGTQ Y15, Y0, Y8
	VPOR     Y8, Y4, Y4
	VPAND    Y0, Y4, Y4
	VMOVDQU  Y4, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	JMP      inf4

infDone:
	VZEROUPPER
	RET

// func reluBackwardAVX(dx, g, out []float64)
//
//	dx[i] = g[i] if bits(out[i]) != 0, else +0
//
// Forward's output is +0 exactly where its input was not above 0. Caller
// guarantees len(dx) is a multiple of 4 and g and out are at least as long.
TEXT ·reluBackwardAVX(SB), NOSPLIT, $0-72
	MOVQ    dx_base+0(FP), DI
	MOVQ    dx_len+8(FP), CX
	MOVQ    g_base+24(FP), SI
	MOVQ    out_base+48(FP), DX
	VPXOR   Y15, Y15, Y15
	PCALIGN $64

bwd16:
	CMPQ     CX, $16
	JL       bwd4
	VPCMPEQQ (DX), Y15, Y0        // out's bits == 0
	VPCMPEQQ 32(DX), Y15, Y1
	VPCMPEQQ 64(DX), Y15, Y2
	VPCMPEQQ 96(DX), Y15, Y3
	VPANDN   (SI), Y0, Y0         // g where out's bits != 0
	VPANDN   32(SI), Y1, Y1
	VPANDN   64(SI), Y2, Y2
	VPANDN   96(SI), Y3, Y3
	VMOVDQU  Y0, (DI)
	VMOVDQU  Y1, 32(DI)
	VMOVDQU  Y2, 64(DI)
	VMOVDQU  Y3, 96(DI)
	ADDQ     $128, SI
	ADDQ     $128, DX
	ADDQ     $128, DI
	SUBQ     $16, CX
	JMP      bwd16

bwd4:
	TESTQ    CX, CX
	JZ       bwdDone
	VPCMPEQQ (DX), Y15, Y0
	VPANDN   (SI), Y0, Y0
	VMOVDQU  Y0, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DX
	ADDQ     $32, DI
	SUBQ     $4, CX
	JMP      bwd4

bwdDone:
	VZEROUPPER
	RET
