//go:build amd64 && !noasm

#include "textflag.h"

// The rectifier's kernels select with 256-bit integer masks, as the Go
// loops select with integer masks: each lane compares the bits of one
// float64 as a signed 64-bit integer (VPCMPGTQ, VPCMPEQQ) and keeps or
// clears them (VPAND, VPANDN). There is no arithmetic, so every
// output has exactly the bits the Go loop selects, NaN payloads included.
// Sixteen elements per pass, then four; the Go wrappers run the len mod 4
// tail.

// func reluAVX(dst, src []float64)
//
//	dst[i] = src[i] if bits(src[i]) > bits(−Inf) (signed), else +0
//
// That is, src[i] unless src[i] <= 0. As signed integers, −0, every
// negative value and −Inf lie at or below −Inf's bits, and a negative NaN
// lies above them, as does everything else; +0 keeps its zero bits. So
// NaN of either sign passes through. Forward and Infer both rectify with
// it. Caller guarantees len(dst) is a multiple of 4 and len(src) >=
// len(dst).
TEXT ·reluAVX(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         $0xFFF0000000000000, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14         // −Inf's bits
	PCALIGN      $64

relu16:
	CMPQ     CX, $16
	JL       relu4
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y1
	VMOVDQU  64(SI), Y2
	VMOVDQU  96(SI), Y3
	VPCMPGTQ Y14, Y0, Y4          // bits > −Inf's
	VPCMPGTQ Y14, Y1, Y5
	VPCMPGTQ Y14, Y2, Y6
	VPCMPGTQ Y14, Y3, Y7
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
	JMP      relu16

relu4:
	TESTQ    CX, CX
	JZ       reluDone
	VMOVDQU  (SI), Y0
	VPCMPGTQ Y14, Y0, Y4
	VPAND    Y0, Y4, Y4
	VMOVDQU  Y4, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	JMP      relu4

reluDone:
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
