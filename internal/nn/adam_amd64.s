//go:build amd64 && !noasm

#include "textflag.h"

// func adamAVX(p, g, m, v []float64, c *adamCoeffs)
//
// For every element, four lanes at a time, in the scalar loop's order:
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + ((1−β2)·g)·g
//	p = p − (lr·(m/bc1)) / (√(v/bc2) + ε)
//
// Each multiply, add, subtract, divide and square root rounds as its
// scalar form does (no FMA), and lanes never mix, so every element gets
// the Go loop's bits. c holds β1, 1−β1, β2, 1−β2, bc1, bc2, lr and ε at
// byte offsets 0, 8, ..., 56. Caller guarantees len(p) is a multiple of 4
// and g, m and v are at least as long.
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX
	VBROADCASTSD 0(AX), Y8   // β1
	VBROADCASTSD 8(AX), Y9   // 1−β1
	VBROADCASTSD 16(AX), Y10 // β2
	VBROADCASTSD 24(AX), Y11 // 1−β2
	VBROADCASTSD 32(AX), Y12 // bc1
	VBROADCASTSD 40(AX), Y13 // bc2
	VBROADCASTSD 48(AX), Y14 // lr
	VBROADCASTSD 56(AX), Y15 // ε
	SHLQ  $3, CX             // bytes
	XORQ  BX, BX
	TESTQ CX, CX
	JZ    done

	// Start the loop on a 64-byte boundary, as the mat kernels do.
	PCALIGN $64

loop:
	VMOVUPD (SI)(BX*1), Y0      // g
	VMULPD  (R8)(BX*1), Y8, Y1  // β1·m
	VMULPD  Y0, Y9, Y2          // (1−β1)·g
	VADDPD  Y2, Y1, Y1          // m
	VMOVUPD Y1, (R8)(BX*1)
	VMULPD  (R9)(BX*1), Y10, Y3 // β2·v
	VMULPD  Y0, Y11, Y4         // (1−β2)·g
	VMULPD  Y0, Y4, Y4          // ((1−β2)·g)·g
	VADDPD  Y4, Y3, Y3          // v
	VMOVUPD Y3, (R9)(BX*1)
	VDIVPD  Y12, Y1, Y1         // m/bc1
	VDIVPD  Y13, Y3, Y3         // v/bc2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3         // √(v/bc2) + ε
	VMULPD  Y1, Y14, Y1         // lr·(m/bc1)
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(BX*1), Y5
	VSUBPD  Y1, Y5, Y5          // p − step
	VMOVUPD Y5, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JL      loop

done:
	VZEROUPPER
	RET
