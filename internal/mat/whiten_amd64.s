//go:build amd64 && !noasm

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func whitenQuadAVX(q *[16]float64, tile, w, mtil []float64, d int)
//
// For the 8 interleaved lanes of tile (tile[r*8+lane] = z_lane[r]), writing
// q[0:8]:
//
//	q[lane] = sum_{j<d} t_j^2,  t_j = (sum_{r<=j} w[j*d+r]*tile[r*8+lane]) - mtil[j]
//
// w is row-major lower triangular (only r <= j is read), so the inner loop
// runs exactly j+1 broadcasts per output row j — the triangular matvec at
// half the FLOPs of a dense product. Each broadcast feeds two 4-wide FMAs
// (lanes 0-3 in Y0, lanes 4-7 in Y1); the reduction subtracts the broadcast
// whitened mean and accumulates t*t into Y4/Y5. All operations are vertical,
// so lanes never mix: a row's q depends only on its own tile column.
//
// Caller guarantees d >= 1 and slices of d*8, d*d and d elements.
TEXT ·whitenQuadAVX(SB), NOSPLIT, $0-88
	MOVQ q+0(FP), R10
	MOVQ tile_base+8(FP), SI
	MOVQ w_base+32(FP), DI
	MOVQ mtil_base+56(FP), R8
	MOVQ d+80(FP), R9

	VXORPD Y4, Y4, Y4        // q, lanes 0-3
	VXORPD Y5, Y5, Y5        // q, lanes 4-7
	XORQ   R11, R11          // j
	MOVQ   DI, R12           // &w[j*d]

loopj:
	VXORPD Y0, Y0, Y0        // u, lanes 0-3
	VXORPD Y1, Y1, Y1        // u, lanes 4-7
	MOVQ   SI, R13           // &tile[r*8]
	XORQ   R14, R14          // r

	// Start the hot loop on a 64-byte boundary. Without this its alignment,
	// and with it the kernel's speed, follows wherever the linker places the
	// function: a 32-byte shift of the entry slowed the 512x64x4 pass by a
	// fifth on an AVX2 x86-64 host.
	PCALIGN $64

loopr:
	VBROADCASTSD (R12)(R14*8), Y2
	VFMADD231PD  (R13), Y2, Y0
	VFMADD231PD  32(R13), Y2, Y1
	ADDQ         $64, R13
	INCQ         R14
	CMPQ         R14, R11
	JLE          loopr       // r <= j: lower triangle only

	VBROADCASTSD (R8)(R11*8), Y3
	VSUBPD       Y3, Y0, Y2  // t = u - mtil[j], lanes 0-3
	VFMADD231PD  Y2, Y2, Y4  // q += t*t
	VSUBPD       Y3, Y1, Y2  // lanes 4-7
	VFMADD231PD  Y2, Y2, Y5

	LEAQ (R12)(R9*8), R12    // next w row
	INCQ R11
	CMPQ R11, R9
	JL   loopj

	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VZEROUPPER
	RET
