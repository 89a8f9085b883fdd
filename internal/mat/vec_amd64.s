//go:build amd64 && !noasm

#include "textflag.h"

// The element kernels. Each lane holds one element and runs the scalar
// loop's operations on it in the loop's order, rounding after every
// multiply (VMULPD), add (VADDPD) and subtract (VSUBPD). There is no FMA
// and lanes never mix, so each element gets the Go loop's bits. Each
// operation also takes its operands in the order the Go compiler emits for
// the loop (for AxpyVec, (x·s) + y), so when both are NaN the same payload
// survives. The Go wrappers run the len mod 4 tail.

// func axpyAVX(y []float64, s float64, x []float64)
//
//	y[i] = x[i]*s + y[i]   for i < len(y)
//
// Caller guarantees len(y) is a multiple of 4 and len(x) >= len(y).
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y15
	MOVQ         x_base+32(FP), SI
	PCALIGN      $64

axpy16:
	CMPQ    CX, $16
	JL      axpy4
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VMULPD  Y15, Y4, Y4
	VMULPD  Y15, Y5, Y5
	VMULPD  Y15, Y6, Y6
	VMULPD  Y15, Y7, Y7
	VADDPD  (DI), Y4, Y4
	VADDPD  32(DI), Y5, Y5
	VADDPD  64(DI), Y6, Y6
	VADDPD  96(DI), Y7, Y7
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	TESTQ   CX, CX
	JZ      axpyDone
	VMOVUPD (SI), Y4
	VMULPD  Y15, Y4, Y4
	VADDPD  (DI), Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpyDone:
	VZEROUPPER
	RET

// func addAVX(y, x []float64)
//
//	y[i] = y[i] + x[i]   for i < len(y)
//
// Caller guarantees len(y) is a multiple of 4 and len(x) >= len(y).
TEXT ·addAVX(SB), NOSPLIT, $0-48
	MOVQ    y_base+0(FP), DI
	MOVQ    y_len+8(FP), CX
	MOVQ    x_base+24(FP), SI
	PCALIGN $64

add16:
	CMPQ    CX, $16
	JL      add4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     add16

add4:
	TESTQ   CX, CX
	JZ      addDone
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     add4

addDone:
	VZEROUPPER
	RET

// func scaleAVX(v []float64, s float64)
//
//	v[i] = v[i]*s   for i < len(v)
//
// Caller guarantees len(v) is a multiple of 4.
TEXT ·scaleAVX(SB), NOSPLIT, $0-32
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y15
	PCALIGN      $64

scale16:
	CMPQ    CX, $16
	JL      scale4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     scale16

scale4:
	TESTQ   CX, CX
	JZ      scaleDone
	VMOVUPD (DI), Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     scale4

scaleDone:
	VZEROUPPER
	RET

// func subRows4AVX(v, q []float64, d int, a0, a1, a2, a3 float64)
//
//	v[c] = v[c] - (((a0*q[c] + a1*q[d+c]) + a2*q[2d+c]) + a3*q[3d+c])
//
// for c < len(v): one four-row step of the Gram–Schmidt subtraction, its
// sum grouped as the Go expression groups it. Caller guarantees len(v) is
// a multiple of 4 and len(q) >= 3d + len(v).
TEXT ·subRows4AVX(SB), NOSPLIT, $0-88
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	MOVQ         q_base+24(FP), SI
	MOVQ         d+48(FP), R8
	SHLQ         $3, R8              // row stride of q, bytes
	LEAQ         (R8)(R8*2), R9      // three row strides
	VBROADCASTSD a0+56(FP), Y12
	VBROADCASTSD a1+64(FP), Y13
	VBROADCASTSD a2+72(FP), Y14
	VBROADCASTSD a3+80(FP), Y15
	PCALIGN      $64

sub8:
	CMPQ    CX, $8
	JL      sub4
	VMULPD  (SI), Y12, Y0
	VMULPD  32(SI), Y12, Y4
	VMULPD  (SI)(R8*1), Y13, Y1
	VMULPD  32(SI)(R8*1), Y13, Y5
	VADDPD  Y1, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R8*2), Y14, Y1
	VMULPD  32(SI)(R8*2), Y14, Y5
	VADDPD  Y1, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R9*1), Y15, Y1
	VMULPD  32(SI)(R9*1), Y15, Y5
	VADDPD  Y1, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VMOVUPD (DI), Y2
	VMOVUPD 32(DI), Y6
	VSUBPD  Y0, Y2, Y2
	VSUBPD  Y4, Y6, Y6
	VMOVUPD Y2, (DI)
	VMOVUPD Y6, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     sub8

sub4:
	TESTQ   CX, CX
	JZ      subDone
	VMULPD  (SI), Y12, Y0
	VMULPD  (SI)(R8*1), Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (SI)(R8*2), Y14, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (SI)(R9*1), Y15, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (DI), Y2
	VSUBPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     sub4

subDone:
	VZEROUPPER
	RET
