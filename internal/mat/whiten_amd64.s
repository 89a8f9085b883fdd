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

// func whitenRowsAVX(q *[8]float64, tile, a, m, init, out []float64, rows, cols int, tri bool)
//
// For the 8 interleaved lanes of tile (tile[c*8+lane] = z_lane[c]), writing
// q[0:8]:
//
//	q[lane] = sum_{j<rows} t_j^2,  t_j = u_j - m[j],
//	u_j = init[j*8+lane] + sum_{c<ext_j} a[j*cols+c]*tile[c*8+lane]
//
// with ext_j = j+1 when tri (a is lower triangular, rows = cols) and cols
// otherwise, init taken as 0 when it is empty, and t_j stored to
// out[j*8+lane] when out is non-empty. Each u_j is one FMA chain in
// ascending c, per 4-lane half, and q one chain in ascending j, so every
// output has the bits of one row at a time (the kernel's single-row loop).
//
// Output rows run four at a time: each tile load (lanes 0-3 in Y8, 4-7 in
// Y9) feeds four broadcasts of a and eight independent FMA chains
// (Y0-Y7), enough to cover FMA latency. On a triangle the shared loop runs
// to the first row's extent; the three columns only the lower rows reach
// finish in a short tail, each row still in ascending c. Leftover rows run
// one at a time. All operations are vertical, so lanes never mix: a row's q
// depends only on its own tile column.
//
// Caller guarantees slices of ext*8 (tile), rows*cols (a), rows (m) and,
// when non-empty, rows*8 (init, out) elements.
TEXT ·whitenRowsAVX(SB), NOSPLIT, $0-145
	MOVQ tile_base+8(FP), SI
	MOVQ a_base+32(FP), DI   // &a[j*cols]
	MOVQ m_base+56(FP), R8
	MOVQ rows+128(FP), R9
	MOVQ cols+136(FP), CX
	SHLQ $3, CX              // row stride of a, bytes
	LEAQ (CX)(CX*2), DX      // three row strides

	VXORPD Y14, Y14, Y14     // q, lanes 0-3
	VXORPD Y15, Y15, Y15     // q, lanes 4-7
	XORQ   R11, R11          // j

block4:
	LEAQ 4(R11), AX
	CMPQ AX, R9
	JG   rows1

	MOVQ init_len+88(FP), AX
	TESTQ AX, AX
	JZ   zero4
	MOVQ init_base+80(FP), AX
	MOVQ R11, BX
	SHLQ $6, BX
	ADDQ BX, AX              // &init[j*8]
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	JMP  ext4

zero4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

ext4:
	MOVQ    cols+136(FP), BX
	MOVBQZX tri+144(FP), AX
	TESTQ   AX, AX
	JZ      span4
	LEAQ    1(R11), BX       // triangle: the first row's extent, j+1

span4:
	MOVQ DI, R12             // &a[j*cols+c]
	MOVQ SI, R13             // &tile[c*8]
	SHLQ $6, BX
	LEAQ (SI)(BX*1), R10     // &tile[ext*8]
	CMPQ R13, R10
	JGE  tail4

	// Start the hot loops on a 64-byte boundary. Without this their
	// alignment, and with it the kernel's speed, follows wherever the linker
	// places the function: a 32-byte shift of the entry slowed the 512x64x4
	// pass by a fifth on an AVX2 x86-64 host.
	PCALIGN $64

loop4:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (R12), Y10
	VBROADCASTSD (R12)(CX*1), Y11
	VBROADCASTSD (R12)(CX*2), Y12
	VBROADCASTSD (R12)(DX*1), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $8, R12
	ADDQ         $64, R13
	CMPQ         R13, R10
	JL           loop4

tail4:
	MOVBQZX tri+144(FP), AX
	TESTQ   AX, AX
	JZ      reduce4
	// Column j+1 reaches rows j+1..j+3, column j+2 rows j+2..j+3, column
	// j+3 row j+3 alone.
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (R12)(CX*1), Y11
	VBROADCASTSD (R12)(CX*2), Y12
	VBROADCASTSD (R12)(DX*1), Y13
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	VMOVUPD      64(R13), Y8
	VMOVUPD      96(R13), Y9
	VBROADCASTSD 8(R12)(CX*2), Y12
	VBROADCASTSD 8(R12)(DX*1), Y13
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	VMOVUPD      128(R13), Y8
	VMOVUPD      160(R13), Y9
	VBROADCASTSD 16(R12)(DX*1), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

reduce4:
	// t = u - m[j], q += t*t, rows in ascending order.
	VBROADCASTSD (R8)(R11*8), Y10
	VSUBPD       Y10, Y0, Y0
	VSUBPD       Y10, Y1, Y1
	VFMADD231PD  Y0, Y0, Y14
	VFMADD231PD  Y1, Y1, Y15
	VBROADCASTSD 8(R8)(R11*8), Y10
	VSUBPD       Y10, Y2, Y2
	VSUBPD       Y10, Y3, Y3
	VFMADD231PD  Y2, Y2, Y14
	VFMADD231PD  Y3, Y3, Y15
	VBROADCASTSD 16(R8)(R11*8), Y10
	VSUBPD       Y10, Y4, Y4
	VSUBPD       Y10, Y5, Y5
	VFMADD231PD  Y4, Y4, Y14
	VFMADD231PD  Y5, Y5, Y15
	VBROADCASTSD 24(R8)(R11*8), Y10
	VSUBPD       Y10, Y6, Y6
	VSUBPD       Y10, Y7, Y7
	VFMADD231PD  Y6, Y6, Y14
	VFMADD231PD  Y7, Y7, Y15

	MOVQ out_len+112(FP), AX
	TESTQ AX, AX
	JZ   next4
	MOVQ out_base+104(FP), AX
	MOVQ R11, BX
	SHLQ $6, BX
	ADDQ BX, AX              // &out[j*8]
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)

next4:
	LEAQ (DI)(CX*4), DI      // a row j+4
	ADDQ $4, R11
	JMP  block4

rows1:
	CMPQ R11, R9
	JGE  done

	MOVQ init_len+88(FP), AX
	TESTQ AX, AX
	JZ   zero1
	MOVQ init_base+80(FP), AX
	MOVQ R11, BX
	SHLQ $6, BX
	VMOVUPD (AX)(BX*1), Y0
	VMOVUPD 32(AX)(BX*1), Y1
	JMP  ext1

zero1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

ext1:
	MOVQ    cols+136(FP), BX
	MOVBQZX tri+144(FP), AX
	TESTQ   AX, AX
	JZ      span1
	LEAQ    1(R11), BX

span1:
	MOVQ DI, R12
	MOVQ SI, R13
	SHLQ $6, BX
	LEAQ (SI)(BX*1), R10
	CMPQ R13, R10
	JGE  reduce1

	PCALIGN $64

loop1:
	VBROADCASTSD (R12), Y2
	VFMADD231PD  (R13), Y2, Y0
	VFMADD231PD  32(R13), Y2, Y1
	ADDQ         $8, R12
	ADDQ         $64, R13
	CMPQ         R13, R10
	JL           loop1

reduce1:
	VBROADCASTSD (R8)(R11*8), Y3
	VSUBPD       Y3, Y0, Y0
	VSUBPD       Y3, Y1, Y1
	VFMADD231PD  Y0, Y0, Y14
	VFMADD231PD  Y1, Y1, Y15

	MOVQ out_len+112(FP), AX
	TESTQ AX, AX
	JZ   next1
	MOVQ out_base+104(FP), AX
	MOVQ R11, BX
	SHLQ $6, BX
	VMOVUPD Y0, (AX)(BX*1)
	VMOVUPD Y1, 32(AX)(BX*1)

next1:
	ADDQ CX, DI
	INCQ R11
	JMP  rows1

done:
	MOVQ    q+0(FP), AX
	VMOVUPD Y14, (AX)
	VMOVUPD Y15, 32(AX)
	VZEROUPPER
	RET

// func packTileAVX(tile, z []float64, cols int)
//
//	tile[c*8 + lane] = z[lane*len(z)/8 + c]   for c < cols, lane < 8
//
// packTile for a full lane block: eight rows of z (row stride len(z)/8)
// transposed, four columns at a time, into the column-major tile. Each
// step loads four columns of the eight rows, transposes rows 0-3 and rows
// 4-7 as two 4×4 blocks (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) and stores
// each column's eight lanes as one 64-byte tile row. It moves values only.
// Caller guarantees cols is a multiple of 4, len(z)/8 >= cols and
// len(tile) >= 8*cols.
TEXT ·packTileAVX(SB), NOSPLIT, $0-56
	MOVQ tile_base+0(FP), DI
	MOVQ z_base+24(FP), SI
	MOVQ z_len+32(FP), R8
	SHRQ $3, R8
	SHLQ $3, R8              // row stride of z, bytes
	LEAQ (R8)(R8*2), R9      // three row strides
	LEAQ (SI)(R8*4), DX      // &z[row 4][c]
	MOVQ cols+48(FP), CX
	PCALIGN $64

pack4:
	TESTQ      CX, CX
	JZ         packDone
	VMOVUPD    (SI), Y0
	VMOVUPD    (SI)(R8*1), Y1
	VMOVUPD    (SI)(R8*2), Y2
	VMOVUPD    (SI)(R9*1), Y3
	VMOVUPD    (DX), Y4
	VMOVUPD    (DX)(R8*1), Y5
	VMOVUPD    (DX)(R8*2), Y6
	VMOVUPD    (DX)(R9*1), Y7
	VUNPCKLPD  Y1, Y0, Y8    // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD  Y1, Y0, Y9    // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD  Y3, Y2, Y10
	VUNPCKHPD  Y3, Y2, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VPERM2F128 $0x31, Y10, Y8, Y14
	VPERM2F128 $0x31, Y11, Y9, Y15
	VMOVUPD    Y12, (DI)     // column c, lanes 0-3
	VMOVUPD    Y13, 64(DI)
	VMOVUPD    Y14, 128(DI)
	VMOVUPD    Y15, 192(DI)
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y12
	VPERM2F128 $0x20, Y11, Y9, Y13
	VPERM2F128 $0x31, Y10, Y8, Y14
	VPERM2F128 $0x31, Y11, Y9, Y15
	VMOVUPD    Y12, 32(DI)   // column c, lanes 4-7
	VMOVUPD    Y13, 96(DI)
	VMOVUPD    Y14, 160(DI)
	VMOVUPD    Y15, 224(DI)
	ADDQ       $32, SI
	ADDQ       $32, DX
	ADDQ       $256, DI
	SUBQ       $4, CX
	JMP        pack4

packDone:
	VZEROUPPER
	RET
