//go:build amd64 && !purego && !noasm

#include "textflag.h"

// func AxpyInt16(dst []int32, x []int16, w int16)
//
// dst[i] += w * x[i]: the broadcast weight multiplies eight int16 lanes
// per iteration (PMULLW/PMULHW give the 32-bit products), accumulated
// into the int32 destination.
TEXT ·AxpyInt16(SB), NOSPLIT, $0-50
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	CMPQ DX, CX
	JGE  alenok
	MOVQ DX, CX
alenok:
	MOVWLSX w+48(FP), AX
	MOVQ AX, X7
	PSHUFLW $0, X7, X7 // w in all four low words
	PSHUFD $0, X7, X7  // w in all eight words

loop8:
	CMPQ CX, $8
	JLT  atail
	MOVOU (SI), X1     // 8 x int16
	MOVOU X1, X2
	PMULLW X7, X1      // low 16 bits of products
	PMULHW X7, X2      // high 16 bits of products (signed)
	MOVOU X1, X3
	PUNPCKLWL X2, X1   // 4 x int32 (elements 0..3)
	PUNPCKHWL X2, X3   // 4 x int32 (elements 4..7)
	MOVOU (DI), X4
	PADDL X1, X4
	MOVOU X4, (DI)
	MOVOU 16(DI), X5
	PADDL X3, X5
	MOVOU X5, 16(DI)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  loop8

atail:
	CMPQ CX, $0
	JLE  adone
	MOVWLSX (SI), BX
	IMULL AX, BX
	ADDL BX, (DI)
	ADDQ $2, SI
	ADDQ $4, DI
	DECQ CX
	JMP  atail

adone:
	RET

// func widenShiftInt8(dst []int16, src []int8, zp int16)
//
// dst[i] = int16(src[i]) - zp over len(dst) elements (len(src) equal).
// Sign extension is the SSE2 self-interleave trick: PUNPCKLBW of a
// register with itself doubles each byte into a word, and PSRAW $8
// arithmetic-shifts the copy into a sign-extended int16.
TEXT ·widenShiftInt8(SB), NOSPLIT, $0-50
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVWLSX zp+48(FP), AX
	MOVL AX, BX
	MOVL BX, X7
	PSHUFLW $0, X7, X7
	PSHUFD $0, X7, X7 // zp in all eight words

wloop8:
	CMPQ CX, $8
	JLT  wtail
	MOVQ (SI), X1     // 8 int8 codes
	PUNPCKLBW X1, X1
	PSRAW $8, X1      // sign-extended int16
	PSUBW X7, X1
	MOVOU X1, (DI)
	ADDQ $8, SI
	ADDQ $16, DI
	SUBQ $8, CX
	JMP  wloop8

wtail:
	CMPQ CX, $0
	JLE  wdone
	MOVBLSX (SI), BX
	SUBL AX, BX
	MOVW BX, (DI)
	INCQ SI
	ADDQ $2, DI
	DECQ CX
	JMP  wtail

wdone:
	RET

// func packPairShiftInt8(out []int16, r0, r1 []int8, zp int16)
//
// out[2i] = int16(r0[i]) - zp, out[2i+1] = int16(r1[i]) - zp: widen and
// shift both rows (see widenShiftInt8), then PUNPCKLWD/PUNPCKHWD
// interleave them into the PMADDWD pair layout.
TEXT ·packPairShiftInt8(SB), NOSPLIT, $0-74
	MOVQ out_base+0(FP), DI
	MOVQ r0_base+24(FP), SI
	MOVQ r0_len+32(FP), CX
	MOVQ r1_base+48(FP), R9
	MOVWLSX zp+72(FP), AX
	MOVL AX, BX
	MOVL BX, X7
	PSHUFLW $0, X7, X7
	PSHUFD $0, X7, X7 // zp in all eight words

qloop8:
	CMPQ CX, $8
	JLT  qtail
	MOVQ (SI), X1
	PUNPCKLBW X1, X1
	PSRAW $8, X1
	PSUBW X7, X1 // 8 shifted int16 of r0
	MOVQ (R9), X2
	PUNPCKLBW X2, X2
	PSRAW $8, X2
	PSUBW X7, X2 // 8 shifted int16 of r1
	MOVOU X1, X3
	PUNPCKLWL X2, X3 // pairs 0..3
	PUNPCKHWL X2, X1 // pairs 4..7
	MOVOU X3, (DI)
	MOVOU X1, 16(DI)
	ADDQ $8, SI
	ADDQ $8, R9
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  qloop8

qtail:
	CMPQ CX, $0
	JLE  qdone
	MOVBLSX (SI), BX
	SUBL AX, BX
	MOVW BX, (DI)
	MOVBLSX (R9), BX
	SUBL AX, BX
	MOVW BX, 2(DI)
	INCQ SI
	INCQ R9
	ADDQ $4, DI
	DECQ CX
	JMP  qtail

qdone:
	RET
