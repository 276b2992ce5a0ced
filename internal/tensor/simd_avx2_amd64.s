//go:build amd64 && !purego && !noasm

#include "textflag.h"

// AVX2 bodies of the integer kernels in simd.go. The flat kernels cover
// whole vectors and leave the ragged end to the portable loop in their
// caller; the row kernels finish each row's ragged end with a scalar
// loop of their own. Every vector instruction, the GPR->XMM staging moves
// included, is VEX-encoded: a legacy SSE write to an XMM register while
// the YMM uppers are dirty costs a state transition per instruction.

// func convTapsInt16AVX2(acc *int32, n int, x *int16, offs *int32, w *int16, taps int, bias int32, fromAcc bool)
//
// Sixteen outputs per chunk (n is a multiple of 16): Y0/Y1 accumulate
// the low/high unpack halves across all taps, tap pairs through VPMADDWD
// as in the 512-bit body, an odd last tap under the weight pair (w, 0).
// VPERM2I128 restores linear order before the seed is added.
TEXT ·convTapsInt16AVX2(SB), NOSPLIT, $0-53
	MOVQ acc+0(FP), DI
	MOVQ n+8(FP), R14
	MOVQ x+16(FP), SI
	MOVQ offs+24(FP), R8
	MOVQ w+32(FP), R9
	MOVQ taps+40(FP), R10
	MOVL bias+48(FP), AX
	VMOVD AX, X15
	VPBROADCASTD X15, Y15
	MOVBLZX fromAcc+52(FP), R13
	MOVQ R10, R11
	ANDQ $-2, R11 // taps in whole pairs

ct2chunk:
	CMPQ R14, $16
	JLT  ct2done
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ R12, R12

ct2pair:
	CMPQ R12, R11
	JGE  ct2odd
	MOVLQSX (R8)(R12*4), AX
	MOVLQSX 4(R8)(R12*4), DX
	VMOVDQU (SI)(AX*2), Y2
	VMOVDQU (SI)(DX*2), Y3
	VPBROADCASTD (R9)(R12*2), Y4
	VPUNPCKLWD Y3, Y2, Y5
	VPUNPCKHWD Y3, Y2, Y6
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1
	ADDQ $2, R12
	JMP  ct2pair

ct2odd:
	CMPQ R12, R10
	JGE  ct2store
	MOVLQSX (R8)(R12*4), AX
	VMOVDQU (SI)(AX*2), Y2
	MOVWLZX (R9)(R12*2), AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4 // (w, 0)
	VPUNPCKLWD Y2, Y2, Y5
	VPUNPCKHWD Y2, Y2, Y6
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1

ct2store:
	VPERM2I128 $0x20, Y1, Y0, Y7 // outputs 0..7
	VPERM2I128 $0x31, Y1, Y0, Y8 // outputs 8..15
	TESTQ R13, R13
	JNZ  ct2fromacc
	VPADDD Y15, Y7, Y7
	VPADDD Y15, Y8, Y8
	JMP  ct2write

ct2fromacc:
	VPADDD (DI), Y7, Y7
	VPADDD 32(DI), Y8, Y8

ct2write:
	VMOVDQU Y7, (DI)
	VMOVDQU Y8, 32(DI)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $16, R14
	JMP  ct2chunk

ct2done:
	VZEROUPPER
	RET

// func widenShiftRowsInt8AVX2(dst *int16, rowOff *int32, rows int, src *int8, cols int, zp int16)
//
// Row r: dst[rowOff[r]+i] = int16(src[r*cols+i]) - zp, sixteen codes per
// step (VPMOVSXBW, VPSUBW) and a scalar loop for the row's ragged end.
TEXT ·widenShiftRowsInt8AVX2(SB), NOSPLIT, $0-42
	MOVQ dst+0(FP), DI
	MOVQ rowOff+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ src+24(FP), SI
	MOVQ cols+32(FP), R11
	MOVWLSX zp+40(FP), R9
	VMOVD R9, X7
	VPBROADCASTW X7, Y7

wr2row:
	TESTQ R10, R10
	JLE  wr2done
	MOVLQSX (R8), AX
	LEAQ (DI)(AX*2), DX
	MOVQ R11, CX

wr2step:
	CMPQ CX, $16
	JLT  wr2tail
	VPMOVSXBW (SI), Y1
	VPSUBW Y7, Y1, Y1
	VMOVDQU Y1, (DX)
	ADDQ $16, SI
	ADDQ $32, DX
	SUBQ $16, CX
	JMP  wr2step

wr2tail:
	TESTQ CX, CX
	JLE  wr2next
	MOVBLSX (SI), BX
	SUBL R9, BX
	MOVW BX, (DX)
	INCQ SI
	ADDQ $2, DX
	DECQ CX
	JMP  wr2tail

wr2next:
	ADDQ $4, R8
	DECQ R10
	JMP  wr2row

wr2done:
	VZEROUPPER
	RET

// func widenShiftSplit2RowsInt8AVX2(dst *int16, rowOff *int32, rows int, offE, offO int, src *int8, cols int, zp int16)
//
// Even columns to dst[rowOff[r]+offE+i], odd ones to dst[rowOff[r]+offO+i]:
// thirty-two codes read as sixteen (odd<<8 | even) words, shifted apart
// as in the 512-bit body; a scalar loop takes the row's ragged end.
TEXT ·widenShiftSplit2RowsInt8AVX2(SB), NOSPLIT, $0-58
	MOVQ dst+0(FP), DI
	MOVQ rowOff+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ offE+24(FP), R14
	MOVQ offO+32(FP), R15
	MOVQ src+40(FP), SI
	MOVQ cols+48(FP), R11
	MOVWLSX zp+56(FP), R9
	VMOVD R9, X7
	VPBROADCASTW X7, Y7

ws2row:
	TESTQ R10, R10
	JLE  ws2done
	MOVLQSX (R8), AX
	LEAQ (AX)(R14*1), DX
	LEAQ (DI)(DX*2), DX // even destination
	LEAQ (AX)(R15*1), BX
	LEAQ (DI)(BX*2), BX // odd destination
	MOVQ R11, CX

ws2step:
	CMPQ CX, $32
	JLT  ws2tail
	VMOVDQU (SI), Y1
	VPSLLW $8, Y1, Y2
	VPSRAW $8, Y2, Y2
	VPSRAW $8, Y1, Y3
	VPSUBW Y7, Y2, Y2
	VPSUBW Y7, Y3, Y3
	VMOVDQU Y2, (DX)
	VMOVDQU Y3, (BX)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	SUBQ $32, CX
	JMP  ws2step

ws2tail:
	TESTQ CX, CX
	JLE  ws2next
	MOVBLSX (SI), AX
	SUBL R9, AX
	MOVW AX, (DX)
	INCQ SI
	ADDQ $2, DX
	DECQ CX
	JZ   ws2next
	MOVBLSX (SI), AX
	SUBL R9, AX
	MOVW AX, (BX)
	INCQ SI
	ADDQ $2, BX
	DECQ CX
	JMP  ws2tail

ws2next:
	ADDQ $4, R8
	DECQ R10
	JMP  ws2row

ws2done:
	VZEROUPPER
	RET

// func packPairShiftInt8AVX2(out *int16, ldo int, src *int8, lds int, taps, n int, zp int16)
//
// Pair p takes rows 2p and 2p+1 of src (row stride lds, n codes each):
// out[p*ldo+2i] = int16(row 2p [i]) - zp, out[p*ldo+2i+1] = int16(row
// 2p+1 [i]) - zp, zeros from 2n to ldo; the last row of an odd tap count
// pairs with zeros. Sixteen pairs of codes per step, scalar loops for the
// row's ragged end and the zero fill.
TEXT ·packPairShiftInt8AVX2(SB), NOSPLIT, $0-50
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	MOVQ taps+32(FP), R10
	MOVQ n+40(FP), R11
	MOVWLSX zp+48(FP), R13
	VMOVD R13, X7
	VPBROADCASTW X7, Y7
	MOVQ R8, R12
	SUBQ R11, R12
	SUBQ R11, R12 // ldo-2n words of zero fill
	SHLQ $1, R8 // ldo in bytes
	XORQ R14, R14

pp2pair:
	CMPQ R14, R10
	JGE  pp2done
	MOVQ SI, AX
	LEAQ (SI)(R9*1), BX
	MOVQ DI, DX
	MOVQ R11, CX
	LEAQ 1(R14), R15
	CMPQ R15, R10
	JGE  pp2lone

pp2step:
	CMPQ CX, $16
	JLT  pp2tail
	VPMOVSXBW (AX), Y1
	VPMOVSXBW (BX), Y2
	VPSUBW Y7, Y1, Y1
	VPSUBW Y7, Y2, Y2
	VPUNPCKLWD Y2, Y1, Y3
	VPUNPCKHWD Y2, Y1, Y4
	VPERM2I128 $0x20, Y4, Y3, Y5
	VPERM2I128 $0x31, Y4, Y3, Y6
	VMOVDQU Y5, (DX)
	VMOVDQU Y6, 32(DX)
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $64, DX
	SUBQ $16, CX
	JMP  pp2step

pp2tail:
	TESTQ CX, CX
	JLE  pp2fill
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
	JMP  pp2tail

pp2lone: // the last row of an odd tap count: its partner lanes are 0
	VPXOR Y2, Y2, Y2

pp2lonestep:
	CMPQ CX, $16
	JLT  pp2lonetail
	VPMOVSXBW (AX), Y1
	VPSUBW Y7, Y1, Y1
	VPUNPCKLWD Y2, Y1, Y3
	VPUNPCKHWD Y2, Y1, Y4
	VPERM2I128 $0x20, Y4, Y3, Y5
	VPERM2I128 $0x31, Y4, Y3, Y6
	VMOVDQU Y5, (DX)
	VMOVDQU Y6, 32(DX)
	ADDQ $16, AX
	ADDQ $64, DX
	SUBQ $16, CX
	JMP  pp2lonestep

pp2lonetail:
	TESTQ CX, CX
	JLE  pp2fill
	MOVBLSX (AX), R15
	SUBL R13, R15
	MOVW R15, (DX)
	MOVW $0, 2(DX)
	INCQ AX
	ADDQ $4, DX
	DECQ CX
	JMP  pp2lonetail

pp2fill:
	MOVQ R12, CX

pp2fillstep:
	TESTQ CX, CX
	JLE  pp2next
	MOVW $0, (DX)
	ADDQ $2, DX
	DECQ CX
	JMP  pp2fillstep

pp2next:
	LEAQ (SI)(R9*2), SI
	ADDQ R8, DI
	ADDQ $2, R14
	JMP  pp2pair

pp2done:
	VZEROUPPER
	RET

DATA lutConsts<>+0(SB)/8, $0x8080808080808080  // sign-bit flip: code -> table index
DATA lutConsts<>+8(SB)/8, $0x1010101010101010  // one 16-entry sub-table down
DATA lutConsts<>+16(SB)/8, $0x7070707070707070 // saturating lift: indices past 15 set bit 7
GLOBL lutConsts<>(SB), RODATA|NOPTR, $24

// func lut8RowsAVX2(dst, src *int8, ld, rows, cols int, tabs **[256]int8)
//
// PSHUFB nibble select. A code's table index (the code with its sign bit
// flipped) is looked up in each of the table's sixteen 16-byte
// sub-tables in turn: t = index - 16h is 0..15 exactly when the index
// lies in sub-table h, a saturating add of 0x70 leaves those values'
// low nibble alone and sets bit 7 on every other one, which makes
// VPSHUFB return 0 there, and the sixteen results OR together. Thirty-two
// codes per step, then sixteen, then a scalar loop; a nil table skips its
// row.
TEXT ·lut8RowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R9
	MOVQ rows+24(FP), R10
	MOVQ cols+32(FP), R11
	MOVQ tabs+40(FP), R8
	VPBROADCASTQ lutConsts<>+0(SB), Y13
	VPBROADCASTQ lutConsts<>+8(SB), Y14
	VPBROADCASTQ lutConsts<>+16(SB), Y15

lu2row:
	TESTQ R10, R10
	JLE  lu2done
	MOVQ (R8), R12 // the row's table
	TESTQ R12, R12
	JZ   lu2next
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ R11, CX

lu2step32:
	CMPQ CX, $32
	JLT  lu2step16
	VPXOR (AX), Y13, Y0 // table indices
	VPXOR Y1, Y1, Y1
	XORQ R13, R13

lu2sub32:
	VBROADCASTI128 (R12)(R13*1), Y2
	VPADDUSB Y15, Y0, Y3
	VPSHUFB Y3, Y2, Y3
	VPOR Y3, Y1, Y1
	VPSUBB Y14, Y0, Y0
	ADDQ $16, R13
	CMPQ R13, $256
	JLT  lu2sub32
	VMOVDQU Y1, (DX)
	ADDQ $32, AX
	ADDQ $32, DX
	SUBQ $32, CX
	JMP  lu2step32

lu2step16:
	CMPQ CX, $16
	JLT  lu2tail
	VPXOR (AX), X13, X0
	VPXOR X1, X1, X1
	XORQ R13, R13

lu2sub16:
	VMOVDQU (R12)(R13*1), X2
	VPADDUSB X15, X0, X3
	VPSHUFB X3, X2, X3
	VPOR X3, X1, X1
	VPSUBB X14, X0, X0
	ADDQ $16, R13
	CMPQ R13, $256
	JLT  lu2sub16
	VMOVDQU X1, (DX)
	ADDQ $16, AX
	ADDQ $16, DX
	SUBQ $16, CX

lu2tail:
	TESTQ CX, CX
	JLE  lu2next
	MOVBLZX (AX), BX
	XORL $0x80, BX
	MOVB (R12)(BX*1), BX
	MOVB BX, (DX)
	INCQ AX
	INCQ DX
	DECQ CX
	JMP  lu2tail

lu2next:
	ADDQ R9, SI
	ADDQ R9, DI
	ADDQ $8, R8
	DECQ R10
	JMP  lu2row

lu2done:
	VZEROUPPER
	RET

// func accumLUT32AVX2(acc *int32, src *int8, n int, lut *[256]int32, seed int32, fromAcc bool)
//
// acc[i] = seed + lut[src[i]+128] (seed: the scalar, or acc[i]): eight
// sign-extended codes index a gather from the table's middle. n is a
// multiple of 8.
TEXT ·accumLUT32AVX2(SB), NOSPLIT, $0-37
	MOVQ acc+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ lut+24(FP), R8
	ADDQ $512, R8 // entry of code 0
	MOVL seed+32(FP), AX
	VMOVD AX, X7
	VPBROADCASTD X7, Y7
	MOVBLZX fromAcc+36(FP), R13

al2step:
	CMPQ CX, $8
	JLT  al2done
	VPMOVSXBD (SI), Y1
	VPCMPEQD Y3, Y3, Y3 // the gather consumes its mask
	VPGATHERDD Y3, (R8)(Y1*4), Y2
	TESTQ R13, R13
	JNZ  al2fromacc
	VPADDD Y7, Y2, Y2
	JMP  al2write

al2fromacc:
	VPADDD (DI), Y2, Y2

al2write:
	VMOVDQU Y2, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  al2step

al2done:
	VZEROUPPER
	RET

// func narrowSatInt8AVX2(dst *int8, acc *int32, n int)
//
// dst[i] = sat8(acc[i]), sixteen per step: VPACKSSDW, a VPERMQ to undo
// its lane interleave, VPACKSSWB. n is a multiple of 16.
TEXT ·narrowSatInt8AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ n+16(FP), CX

ns2step:
	CMPQ CX, $16
	JLT  ns2done
	VMOVDQU (SI), Y0
	VPACKSSDW 32(SI), Y0, Y0
	VPERMQ $0xD8, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSWB X1, X0, X0
	VMOVDQU X0, (DI)
	ADDQ $64, SI
	ADDQ $16, DI
	SUBQ $16, CX
	JMP  ns2step

ns2done:
	VZEROUPPER
	RET
