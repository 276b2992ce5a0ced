//go:build amd64 && !purego

#include "textflag.h"

// convPlanesLayout field offsets (qplane_amd64.go).
#define L_BLOCKS 0
#define L_NBLK 8
#define L_RECS 16
#define L_SEGS 24
#define L_NTAPS 32
#define L_W 40
#define L_SEED 48
#define L_REQ 56
#define L_TABS 64
#define L_INBASE 72
#define L_OUTHW 80
#define L_INSAMPLE 88
#define L_OUTC 96
#define L_SEGSTEP 104
#define L_STRIDE 112
#define L_ZPIN 120
#define L_ZPOUT 124

// REQUANT turns sixteen int32 accumulators into sixteen int8 codes in
// the low xmm of out with requantTileInt8AVX512's arithmetic, the odd
// dwords moved down and back by VPSHUFD instead of 64-bit shifts: mult
// in Z14, shift in X10, round in Z15, the output zero point in Z13, the
// odd dword lanes in K3; Z20 and Z21 are clobbered.
#define REQUANT(acc, out) \
	VPMULDQ Z14, acc, Z20 \
	VPSHUFD $0xF5, acc, Z21 \
	VPMULDQ Z14, Z21, Z21 \
	VPADDQ  Z15, Z20, Z20 \
	VPADDQ  Z15, Z21, Z21 \
	VPSRAQ  X10, Z20, Z20 \
	VPSRAQ  X10, Z21, Z21 \
	VPSHUFD $0xA0, Z21, K3, Z20 \
	VPADDD  Z13, Z20, Z20 \
	VPMOVSDB Z20, out

// func convPlanesInt8AVX512(dst, x *int8, l *convPlanesLayout, p0, n int)
//
// Output planes p0..p0+n-1, one block of outputs at a time, its
// accumulators seeded with the channel's seed. Per tap entry (a column
// pair of taps) a window's in-plane bytes load under their mask into a
// register of zero-point codes (a masked-off byte is never read), widen
// to words, and one VPMADDWD against the broadcast weight pair adds both
// taps to every lane; the seed takes the zero point off every tap, so a
// border code adds exactly 0. Stride 1 loads two windows a byte apart,
// Z0 accumulating the even outputs and Z1 the odd ones, which interleave
// as codes; stride 2 fills one window from each row segment of the
// block. The block's codes recode through the channel's table with
// VPERMI2B where the layout carries tables (entries 0..127, the
// negative codes, in Z16/Z17; 128..255 in Z18/Z19) and store once under
// the block's lane mask. The sample's input base lives in x's argument
// slot.
TEXT ·convPlanesInt8AVX512(SB), NOSPLIT, $0-40
	MOVQ l+16(FP), R8
	MOVQ p0+24(FP), AX
	XORQ DX, DX
	DIVQ L_OUTC(R8)
	MOVQ DX, R10 // channel of the first plane
	IMULQ L_INSAMPLE(R8), AX
	ADDQ AX, x+8(FP) // its sample's input planes
	MOVQ p0+24(FP), AX
	IMULQ L_OUTHW(R8), AX
	MOVQ dst+0(FP), DI
	ADDQ AX, DI  // its output codes
	MOVL L_ZPIN(R8), AX
	VPBROADCASTB AX, Y7 // the zero point's code
	MOVL L_ZPOUT(R8), AX
	VPBROADCASTD AX, Z13
	MOVL $0xAAAA, AX
	KMOVW AX, K3 // odd dword lanes
	MOVQ L_NTAPS(R8), R15

cpplane:
	CMPQ n+32(FP), $0
	JLE  cpdone
	MOVQ R10, AX
	IMULQ $24, AX
	ADDQ L_REQ(R8), AX
	VPBROADCASTQ 0(AX), Z14  // mult
	VMOVQ 8(AX), X10         // shift count for VPSRAQ
	VPBROADCASTQ 16(AX), Z15 // round
	MOVQ L_SEED(R8), AX
	VPBROADCASTD (AX)(R10*4), Z6
	MOVQ L_TABS(R8), AX
	TESTQ AX, AX
	JZ   cpnotab
	MOVQ (AX)(R10*8), AX
	TESTQ AX, AX
	JZ   cpnotab
	VMOVDQU64 (AX), Z16
	VMOVDQU64 64(AX), Z17
	VMOVDQU64 128(AX), Z18
	VMOVDQU64 192(AX), Z19

cpnotab:
	MOVQ L_INBASE(R8), AX
	MOVLQSX (AX)(R10*4), R11
	ADDQ x+8(FP), R11 // the channel's group of input planes
	MOVQ R10, R12
	IMULQ R15, R12
	SHLQ $2, R12
	ADDQ L_W(R8), R12 // the channel's weight pairs
	MOVQ L_BLOCKS(R8), BX
	MOVQ L_NBLK(R8), CX
	MOVQ L_RECS(R8), R13

cpblock:
	VMOVDQA64 Z6, Z0
	VMOVDQA64 Z6, Z1
	MOVLQSX 4(BX), R9
	ADDQ R11, R9 // the block's input base
	XORQ DX, DX
	CMPQ L_STRIDE(R8), $1
	JNE  cps2

cps1:
	MOVLQSX (R13), AX
	KMOVD 4(R13), K1
	KMOVD 8(R13), K2
	VMOVDQA64 Y7, Y2
	VMOVDQA64 Y7, Y3
	VMOVDQU8 (R9)(AX*1), K1, Y2
	VMOVDQU8 1(R9)(AX*1), K2, Y3
	VPMOVSXBW Y2, Z2
	VPMOVSXBW Y3, Z3
	VPBROADCASTD (R12)(DX*4), Z4
	VPMADDWD Z4, Z2, Z2
	VPMADDWD Z4, Z3, Z3
	VPADDD Z2, Z0, Z0
	VPADDD Z3, Z1, Z1
	ADDQ $12, R13
	INCQ DX
	CMPQ DX, R15
	JLT  cps1
	REQUANT(Z0, X2)
	REQUANT(Z1, X3)
	VPUNPCKLBW X3, X2, X4 // outputs 0..15
	VPUNPCKHBW X3, X2, X5 // outputs 16..31
	VINSERTI128 $1, X5, Y4, Y4
	JMP  cprecode

cps2:
	MOVLQSX (R13), R14
	ADDQ R9, R14 // the first row segment's window
	ADDQ $4, R13
	MOVQ L_SEGS(R8), SI
	VMOVDQA64 Y7, Y2

cpseg:
	KMOVD (R13), K1
	VMOVDQU8 (R14), K1, Y2
	ADDQ L_SEGSTEP(R8), R14
	ADDQ $4, R13
	DECQ SI
	JNZ  cpseg
	VPMOVSXBW Y2, Z2
	VPBROADCASTD (R12)(DX*4), Z4
	VPMADDWD Z4, Z2, Z2
	VPADDD Z2, Z0, Z0
	INCQ DX
	CMPQ DX, R15
	JLT  cps2
	REQUANT(Z0, X4)

cprecode:
	MOVQ L_TABS(R8), AX
	TESTQ AX, AX
	JZ   cpstore
	MOVQ (AX)(R10*8), AX
	TESTQ AX, AX
	JZ   cpstore
	VMOVDQA64 Z4, Z2
	VMOVDQA64 Z4, Z3
	VPERMI2B Z17, Z16, Z2
	VPERMI2B Z19, Z18, Z3
	VPMOVB2M Z4, K4
	VMOVDQU8 Z2, K4, Z3
	VMOVDQA64 Z3, Z4

cpstore:
	KMOVD 8(BX), K5
	MOVLQSX 0(BX), AX
	VMOVDQU8 Y4, K5, (DI)(AX*1)
	ADDQ $16, BX
	DECQ CX
	JNZ  cpblock

	ADDQ L_OUTHW(R8), DI
	INCQ R10
	CMPQ R10, L_OUTC(R8)
	JLT  cpnext
	XORQ R10, R10
	MOVQ L_INSAMPLE(R8), AX
	ADDQ AX, x+8(FP)

cpnext:
	DECQ n+32(FP)
	JMP  cpplane

cpdone:
	VZEROUPPER
	RET
