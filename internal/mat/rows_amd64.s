//go:build amd64 && !noasm

#include "textflag.h"

// The product kernels. Lanes run across output elements only: each lane
// holds one element of d, which starts from its current value (or +0), adds
// its terms in ascending inner index, and rounds after every multiply
// (VMULPD, VMULSD) and every add (VADDPD, VADDSD), as the scalar Go loop
// does. There is no FMA and no horizontal sum, so each element's bits are
// the Go loop's.

// func rowUpdateAVX(d, a []float64, as int, b []float64, bs, terms int)
//
//	d[j] += a[l*as] * b[l*bs+j]   for l = 0, 1, ..., terms-1, every j < len(d)
//
// Thirty-two columns of d stay in Y0-Y7 for the whole l loop, so d is read
// and written once per call; the leftover columns run eight (Y0-Y1), four
// (Y0) and one (X0) at a time, each block over every l. Caller guarantees
// terms >= 1, (terms-1)*as < len(a) and (terms-1)*bs + len(d) <= len(b).
TEXT ·rowUpdateAVX(SB), NOSPLIT, $0-96
	MOVQ d_base+0(FP), DI    // &d[j0]
	MOVQ d_len+8(FP), CX     // columns left
	MOVQ a_base+24(FP), SI
	MOVQ as+48(FP), R8
	SHLQ $3, R8              // coefficient stride, bytes
	MOVQ b_base+56(FP), DX   // &b[j0]
	MOVQ bs+80(FP), R9
	SHLQ $3, R9              // row stride of b, bytes
	MOVQ terms+88(FP), R10

cols32:
	CMPQ CX, $32
	JL   cols8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ    SI, R11          // &a[l*as]
	MOVQ    DX, R12          // &b[l*bs+j0]
	MOVQ    R10, R13

	// Start every hot loop on a 64-byte boundary, as in whiten_amd64.s, so
	// its speed does not follow wherever the linker places the function.
	PCALIGN $64

loop32:
	VBROADCASTSD (R11), Y8
	VMULPD       (R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R12), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R12), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R12), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R12), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R12), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R12), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R12), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         R8, R11
	ADDQ         R9, R12
	DECQ         R13
	JNZ          loop32

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     cols32

cols8:
	CMPQ    CX, $8
	JL      cols4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13
	PCALIGN $64

loop8:
	VBROADCASTSD (R11), Y8
	VMULPD       (R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R12), Y8, Y10
	VADDPD       Y10, Y1, Y1
	ADDQ         R8, R11
	ADDQ         R9, R12
	DECQ         R13
	JNZ          loop8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, CX
	JMP     cols8

cols4:
	CMPQ    CX, $4
	JL      cols1
	VMOVUPD (DI), Y0
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13
	PCALIGN $64

loop4:
	VBROADCASTSD (R11), Y8
	VMULPD       (R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         R8, R11
	ADDQ         R9, R12
	DECQ         R13
	JNZ          loop4

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX

cols1:
	TESTQ   CX, CX
	JZ      done
	VMOVSD  (DI), X0
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13
	PCALIGN $64

loop1:
	VMOVSD (R11), X8
	VMULSD (R12), X8, X8
	VADDSD X8, X0, X0
	ADDQ   R8, R11
	ADDQ   R9, R12
	DECQ   R13
	JNZ    loop1

	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    cols1

done:
	VZEROUPPER
	RET

// func headRowsAVX(d, a, b []float64, rows, k int)
//
//	d[2i+j] = sum_{l<k} a[i*k+l] * b[2l+j]   for i < rows, j < 2
//
// Four rows of a per pass, with the eight outputs in two registers whose
// lanes are (row, column): Y0 = (i,0) (i,1) (i+1,0) (i+1,1) and Y1 the same
// for rows i+2 and i+3, which is also their order in d. Per l, b's row pair
// is loaded into both halves of Y2 (VBROADCASTF128), and each row pair's
// coefficients are broadcast and blended into (a_i, a_i, a_i+1, a_i+1).
// Both sums start from +0. Caller guarantees rows is a multiple of 4,
// len(d) >= 2*rows, len(a) >= rows*k and len(b) >= 2*k.
TEXT ·headRowsAVX(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI   // &a[i*k]
	MOVQ b_base+48(FP), DX
	MOVQ rows+72(FP), R9
	MOVQ k+80(FP), R10
	MOVQ R10, CX
	SHLQ $3, CX              // row stride of a, bytes
	LEAQ (CX)(CX*2), R8      // three row strides

block4:
	CMPQ   R9, $4
	JL     done4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R11           // &a[i*k+l]
	MOVQ   DX, R12           // &b[2l]
	MOVQ   R10, R13
	TESTQ  R13, R13
	JZ     store4
	PCALIGN $64

loop4:
	VBROADCASTF128 (R12), Y2
	VBROADCASTSD   (R11), Y3
	VBROADCASTSD   (R11)(CX*1), Y4
	VBLENDPD       $0x0c, Y4, Y3, Y3
	VMULPD         Y2, Y3, Y3
	VADDPD         Y3, Y0, Y0
	VBROADCASTSD   (R11)(CX*2), Y5
	VBROADCASTSD   (R11)(R8*1), Y6
	VBLENDPD       $0x0c, Y6, Y5, Y5
	VMULPD         Y2, Y5, Y5
	VADDPD         Y5, Y1, Y1
	ADDQ           $8, R11
	ADDQ           $16, R12
	DECQ           R13
	JNZ            loop4

store4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (SI)(CX*4), SI
	SUBQ    $4, R9
	JMP     block4

done4:
	VZEROUPPER
	RET
