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

// func headGradAVX(d, a []float64, as int, b []float64, rows, terms int)
//
//	d[2i+j] = sum_{l<terms} a[l*as+i] * b[2l+j]   for i < rows, j < 2
//
// The p = 2 weight gradient aᵀ·b of the two-class head. Sixteen output rows
// per pass (four while fewer are left), their sums held a column at a
// time: Y0 holds (i,0) (i+1,0) (i+2,0) (i+3,0) and Y1 the same rows'
// column 1, so each l loads four consecutive elements of a's row l and
// multiplies them by b[2l] and by b[2l+1], broadcast. Every sum starts from
// +0 and adds its terms in ascending l; the (row, column) pairs are
// interleaved into d's order only at the store. Caller guarantees rows is a
// multiple of 4, terms >= 1, len(d) >= 2*rows,
// (terms-1)*as + rows <= len(a) and len(b) >= 2*terms.
TEXT ·headGradAVX(SB), NOSPLIT, $0-96
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI   // &a[i]
	MOVQ as+48(FP), R8
	SHLQ $3, R8              // row stride of a, bytes
	MOVQ b_base+56(FP), DX
	MOVQ rows+80(FP), CX
	MOVQ terms+88(FP), R10

grad16:
	CMPQ   CX, $16
	JL     grad4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R11           // &a[l*as+i]
	MOVQ   DX, R12           // &b[2l]
	MOVQ   R10, R13
	PCALIGN $64

loop16:
	VBROADCASTSD (R12), Y8
	VBROADCASTSD 8(R12), Y9
	VMOVUPD      (R11), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y9, Y10, Y13
	VADDPD       Y13, Y1, Y1
	VMOVUPD      32(R11), Y11
	VMULPD       Y8, Y11, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y11, Y15
	VADDPD       Y15, Y3, Y3
	VMOVUPD      64(R11), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y4, Y4
	VMULPD       Y9, Y10, Y13
	VADDPD       Y13, Y5, Y5
	VMOVUPD      96(R11), Y11
	VMULPD       Y8, Y11, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y11, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         R8, R11
	ADDQ         $16, R12
	DECQ         R13
	JNZ          loop16

	// Interleave each column pair into d's (i,0) (i,1) (i+1,0) ... order.
	VUNPCKLPD  Y1, Y0, Y8
	VUNPCKHPD  Y1, Y0, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VMOVUPD    Y10, (DI)
	VMOVUPD    Y11, 32(DI)
	VUNPCKLPD  Y3, Y2, Y8
	VUNPCKHPD  Y3, Y2, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VMOVUPD    Y10, 64(DI)
	VMOVUPD    Y11, 96(DI)
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VMOVUPD    Y10, 128(DI)
	VMOVUPD    Y11, 160(DI)
	VUNPCKLPD  Y7, Y6, Y8
	VUNPCKHPD  Y7, Y6, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VMOVUPD    Y10, 192(DI)
	VMOVUPD    Y11, 224(DI)
	ADDQ       $256, DI
	ADDQ       $128, SI
	SUBQ       $16, CX
	JMP        grad16

grad4:
	CMPQ   CX, $4
	JL     gradDone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R11
	MOVQ   DX, R12
	MOVQ   R10, R13
	PCALIGN $64

loop4g:
	VBROADCASTSD (R12), Y8
	VBROADCASTSD 8(R12), Y9
	VMOVUPD      (R11), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y9, Y10, Y13
	VADDPD       Y13, Y1, Y1
	ADDQ         R8, R11
	ADDQ         $16, R12
	DECQ         R13
	JNZ          loop4g

	VUNPCKLPD  Y1, Y0, Y8
	VUNPCKHPD  Y1, Y0, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VMOVUPD    Y10, (DI)
	VMOVUPD    Y11, 32(DI)
	ADDQ       $64, DI
	ADDQ       $32, SI
	SUBQ       $4, CX
	JMP        grad4

gradDone:
	VZEROUPPER
	RET

// func dotGroupsAVX(a, q, v []float64, groups int)
//
//	a[4g+m] = sum_{c<len(v)} q[4·len(v)·g + 4c + m] * v[c]   for g < groups, m < 4
//
// The dot products of v with the rows of a basis stored four rows
// interleaved: group g holds rows 4g to 4g+3, column by column. One lane
// per row, each sum from +0 in ascending c, so each a[j] gets the bits of
// a dot product of row j with v. Four groups (four independent sums) per
// pass, then one at a time. Caller guarantees len(a) >= 4*groups and
// len(q) >= 4*len(v)*groups.
TEXT ·dotGroupsAVX(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), DI
	MOVQ q_base+24(FP), SI   // &q[group g]
	MOVQ v_base+48(FP), DX
	MOVQ v_len+56(FP), R9
	MOVQ groups+72(FP), CX
	MOVQ R9, R8
	SHLQ $5, R8              // group stride, bytes: 4·len(v) floats
	LEAQ (R8)(R8*2), R14     // three group strides

groups4:
	CMPQ   CX, $4
	JL     groups1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R11           // &q[group][4c]
	MOVQ   DX, R12           // &v[c]
	MOVQ   R9, R13
	TESTQ  R13, R13
	JZ     store4g
	PCALIGN $64

dot4:
	VBROADCASTSD (R12), Y8
	VMULPD       (R11), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       (R11)(R8*1), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       (R11)(R8*2), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       (R11)(R14*1), Y8, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $32, R11
	ADDQ         $8, R12
	DECQ         R13
	JNZ          dot4

store4g:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (SI)(R8*4), SI
	SUBQ    $4, CX
	JMP     groups4

groups1:
	TESTQ  CX, CX
	JZ     dotDone
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R11
	MOVQ   DX, R12
	MOVQ   R9, R13
	TESTQ  R13, R13
	JZ     store1g
	PCALIGN $64

dot1:
	VBROADCASTSD (R12), Y8
	VMULPD       (R11), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $32, R11
	ADDQ         $8, R12
	DECQ         R13
	JNZ          dot1

store1g:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R8, SI
	DECQ    CX
	JMP     groups1

dotDone:
	VZEROUPPER
	RET
