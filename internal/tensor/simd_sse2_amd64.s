//go:build amd64 && !purego

#include "textflag.h"

// SSE2 bodies of the integer kernels in simd.go, the 128-bit tier every
// amd64 host has: the copy-in and pair-pack kernels, whose portable loops cost
// the INT8 row more than 2% (DESIGN.md, "What each assembly body buys"). The flat kernels cover
// whole vectors and leave the ragged end to the portable loop in their
// caller; the row kernels finish each row's ragged end with a scalar
// loop of their own. Sign extension is the self-interleave trick:
// PUNPCKLBW of a register with itself doubles each byte into a word and
// PSRAW $8 shifts the copy into a sign-extended int16.

// func widenShiftInt8SSE2(dst *int16, src *int8, n int, zp int16)
//
// dst[i] = int16(src[i]) - zp, eight codes per step, n a multiple of 8.
TEXT ·widenShiftInt8SSE2(SB), NOSPLIT, $0-26
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVWLSX zp+24(FP), AX
	MOVL AX, X7
	PSHUFLW $0, X7, X7
	PSHUFD $0, X7, X7 // zp in all eight words

ws1step:
	TESTQ CX, CX
	JLE  ws1done
	MOVQ (SI), X1
	PUNPCKLBW X1, X1
	PSRAW $8, X1
	PSUBW X7, X1
	MOVOU X1, (DI)
	ADDQ $8, SI
	ADDQ $16, DI
	SUBQ $8, CX
	JMP  ws1step

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
