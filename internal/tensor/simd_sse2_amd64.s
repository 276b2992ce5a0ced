//go:build amd64 && !purego && !noasm

#include "textflag.h"

// SSE2 bodies of the integer kernels in simd.go, the 128-bit tier every
// amd64 host has: the tap and copy-in kernels, whose portable loops cost
// the INT8 row more than 2% (DESIGN.md, "What each assembly body buys"). The flat kernels cover
// whole vectors and leave the ragged end to the portable loop in their
// caller; the row kernels finish each row's ragged end with a scalar
// loop of their own. Sign extension is the self-interleave trick:
// PUNPCKLBW of a register with itself doubles each byte into a word and
// PSRAW $8 shifts the copy into a sign-extended int16.

// func convTapsInt16SSE2(acc *int32, n int, x *int16, offs *int32, w *int16, taps int, bias int32, fromAcc bool)
//
// Eight outputs per chunk (n is a multiple of 8): X0/X1 accumulate
// outputs 0..3 and 4..7 across all taps, tap pairs interleaved into (x0,
// x1) words and multiplied by the broadcast (w0, w1) pair with PMADDWD,
// an odd last tap under the weight pair (w, 0).
TEXT ·convTapsInt16SSE2(SB), NOSPLIT, $0-53
	MOVQ acc+0(FP), DI
	MOVQ n+8(FP), R14
	MOVQ x+16(FP), SI
	MOVQ offs+24(FP), R8
	MOVQ w+32(FP), R9
	MOVQ taps+40(FP), R10
	MOVL bias+48(FP), AX
	MOVL AX, X15
	PSHUFD $0, X15, X15
	MOVBLZX fromAcc+52(FP), R13
	MOVQ R10, R11
	ANDQ $-2, R11 // taps in whole pairs

ct1chunk:
	CMPQ R14, $8
	JLT  ct1done
	PXOR X0, X0
	PXOR X1, X1
	XORQ R12, R12

ct1pair:
	CMPQ R12, R11
	JGE  ct1odd
	MOVLQSX (R8)(R12*4), AX
	MOVLQSX 4(R8)(R12*4), DX
	MOVOU (SI)(AX*2), X2
	MOVOU (SI)(DX*2), X3
	MOVL (R9)(R12*2), BX
	MOVL BX, X4
	PSHUFD $0, X4, X4
	MOVOU X2, X5
	PUNPCKLWL X3, X5
	PUNPCKHWL X3, X2
	PMADDWL X4, X5
	PMADDWL X4, X2
	PADDL X5, X0
	PADDL X2, X1
	ADDQ $2, R12
	JMP  ct1pair

ct1odd:
	CMPQ R12, R10
	JGE  ct1store
	MOVLQSX (R8)(R12*4), AX
	MOVOU (SI)(AX*2), X2
	MOVWLZX (R9)(R12*2), BX
	MOVL BX, X4
	PSHUFD $0, X4, X4 // (w, 0)
	MOVOU X2, X5
	PUNPCKLWL X2, X5
	PUNPCKHWL X2, X2
	PMADDWL X4, X5
	PMADDWL X4, X2
	PADDL X5, X0
	PADDL X2, X1

ct1store:
	TESTQ R13, R13
	JNZ  ct1fromacc
	PADDL X15, X0
	PADDL X15, X1
	JMP  ct1write

ct1fromacc:
	MOVOU (DI), X6
	MOVOU 16(DI), X7
	PADDL X6, X0
	PADDL X7, X1

ct1write:
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $8, R14
	JMP  ct1chunk

ct1done:
	RET

// func widenShiftRowsInt8SSE2(dst *int16, rowOff *int32, rows int, src *int8, cols int, zp int16)
//
// Row r: dst[rowOff[r]+i] = int16(src[r*cols+i]) - zp, eight codes per
// step and a scalar loop for the row's ragged end.
TEXT ·widenShiftRowsInt8SSE2(SB), NOSPLIT, $0-42
	MOVQ dst+0(FP), DI
	MOVQ rowOff+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ src+24(FP), SI
	MOVQ cols+32(FP), R11
	MOVWLSX zp+40(FP), R9
	MOVL R9, X7
	PSHUFLW $0, X7, X7
	PSHUFD $0, X7, X7 // zp in all eight words

wr1row:
	TESTQ R10, R10
	JLE  wr1done
	MOVLQSX (R8), AX
	LEAQ (DI)(AX*2), DX
	MOVQ R11, CX

wr1step:
	CMPQ CX, $8
	JLT  wr1tail
	MOVQ (SI), X1
	PUNPCKLBW X1, X1
	PSRAW $8, X1
	PSUBW X7, X1
	MOVOU X1, (DX)
	ADDQ $8, SI
	ADDQ $16, DX
	SUBQ $8, CX
	JMP  wr1step

wr1tail:
	TESTQ CX, CX
	JLE  wr1next
	MOVBLSX (SI), BX
	SUBL R9, BX
	MOVW BX, (DX)
	INCQ SI
	ADDQ $2, DX
	DECQ CX
	JMP  wr1tail

wr1next:
	ADDQ $4, R8
	DECQ R10
	JMP  wr1row

wr1done:
	RET

// func widenShiftSplit2RowsInt8SSE2(dst *int16, rowOff *int32, rows int, offE, offO int, src *int8, cols int, zp int16)
//
// Even columns to dst[rowOff[r]+offE+i], odd ones to dst[rowOff[r]+offO+i]:
// sixteen codes read as eight (odd<<8 | even) words; an arithmetic shift
// right by eight is the sign-extended odd code, and the same after a
// shift left by eight the even one. A scalar loop takes the row's ragged
// end.
TEXT ·widenShiftSplit2RowsInt8SSE2(SB), NOSPLIT, $0-58
	MOVQ dst+0(FP), DI
	MOVQ rowOff+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ offE+24(FP), R14
	MOVQ offO+32(FP), R15
	MOVQ src+40(FP), SI
	MOVQ cols+48(FP), R11
	MOVWLSX zp+56(FP), R9
	MOVL R9, X7
	PSHUFLW $0, X7, X7
	PSHUFD $0, X7, X7

ws1row:
	TESTQ R10, R10
	JLE  ws1done
	MOVLQSX (R8), AX
	LEAQ (AX)(R14*1), DX
	LEAQ (DI)(DX*2), DX // even destination
	LEAQ (AX)(R15*1), BX
	LEAQ (DI)(BX*2), BX // odd destination
	MOVQ R11, CX

ws1step:
	CMPQ CX, $16
	JLT  ws1tail
	MOVOU (SI), X1
	MOVOU X1, X2
	PSLLW $8, X2
	PSRAW $8, X2
	PSRAW $8, X1
	PSUBW X7, X2
	PSUBW X7, X1
	MOVOU X2, (DX)
	MOVOU X1, (BX)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $16, BX
	SUBQ $16, CX
	JMP  ws1step

ws1tail:
	TESTQ CX, CX
	JLE  ws1next
	MOVBLSX (SI), AX
	SUBL R9, AX
	MOVW AX, (DX)
	INCQ SI
	ADDQ $2, DX
	DECQ CX
	JZ   ws1next
	MOVBLSX (SI), AX
	SUBL R9, AX
	MOVW AX, (BX)
	INCQ SI
	ADDQ $2, BX
	DECQ CX
	JMP  ws1tail

ws1next:
	ADDQ $4, R8
	DECQ R10
	JMP  ws1row

ws1done:
	RET

// func packPairShiftInt8SSE2(out *int16, ldo int, src *int8, lds int, taps, n int, zp int16)
//
// Pair p takes rows 2p and 2p+1 of src (row stride lds, n codes each):
// out[p*ldo+2i] = int16(row 2p [i]) - zp, out[p*ldo+2i+1] = int16(row
// 2p+1 [i]) - zp, zeros from 2n to ldo; the last row of an odd tap count
// pairs with zeros. Eight pairs of codes per step: widen and shift both
// rows, then PUNPCKLWD/PUNPCKHWD interleave them into the PMADDWD pair
// layout; scalar loops take the row's ragged end and the zero fill.
TEXT ·packPairShiftInt8SSE2(SB), NOSPLIT, $0-50
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	MOVQ taps+32(FP), R10
	MOVQ n+40(FP), R11
	MOVWLSX zp+48(FP), R13
	MOVL R13, X7
	PSHUFLW $0, X7, X7
	PSHUFD $0, X7, X7 // zp in all eight words
	MOVQ R8, R12
	SUBQ R11, R12
	SUBQ R11, R12 // ldo-2n words of zero fill
	SHLQ $1, R8 // ldo in bytes
	XORQ R14, R14

pp1pair:
	CMPQ R14, R10
	JGE  pp1done
	MOVQ SI, AX
	LEAQ (SI)(R9*1), BX
	MOVQ DI, DX
	MOVQ R11, CX
	LEAQ 1(R14), R15
	CMPQ R15, R10
	JGE  pp1lone

pp1step:
	CMPQ CX, $8
	JLT  pp1tail
	MOVQ (AX), X1
	PUNPCKLBW X1, X1
	PSRAW $8, X1
	PSUBW X7, X1 // 8 shifted int16 of the first row
	MOVQ (BX), X2
	PUNPCKLBW X2, X2
	PSRAW $8, X2
	PSUBW X7, X2 // 8 shifted int16 of the second
	MOVOU X1, X3
	PUNPCKLWL X2, X3 // pairs 0..3
	PUNPCKHWL X2, X1 // pairs 4..7
	MOVOU X3, (DX)
	MOVOU X1, 16(DX)
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  pp1step

pp1tail:
	TESTQ CX, CX
	JLE  pp1fill
	MOVBLSX (AX), R15
	SUBL R13, R15
	MOVW R15, (DX)
	MOVBLSX (BX), R15
	SUBL R13, R15
	MOVW R15, 2(DX)
	INCQ AX
	INCQ BX
	ADDQ $4, DX
	DECQ CX
	JMP  pp1tail

pp1lone: // the last row of an odd tap count: its partner lanes are 0
	PXOR X2, X2

pp1lonestep:
	CMPQ CX, $8
	JLT  pp1lonetail
	MOVQ (AX), X1
	PUNPCKLBW X1, X1
	PSRAW $8, X1
	PSUBW X7, X1
	MOVOU X1, X3
	PUNPCKLWL X2, X3
	PUNPCKHWL X2, X1
	MOVOU X3, (DX)
	MOVOU X1, 16(DX)
	ADDQ $8, AX
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  pp1lonestep

pp1lonetail:
	TESTQ CX, CX
	JLE  pp1fill
	MOVBLSX (AX), R15
	SUBL R13, R15
	MOVW R15, (DX)
	MOVW $0, 2(DX)
	INCQ AX
	ADDQ $4, DX
	DECQ CX
	JMP  pp1lonetail

pp1fill:
	MOVQ R12, CX

pp1fillstep:
	TESTQ CX, CX
	JLE  pp1next
	MOVW $0, (DX)
	ADDQ $2, DX
	DECQ CX
	JMP  pp1fillstep

pp1next:
	LEAQ (SI)(R9*2), SI
	ADDQ R8, DI
	ADDQ $2, R14
	JMP  pp1pair

pp1done:
	RET
