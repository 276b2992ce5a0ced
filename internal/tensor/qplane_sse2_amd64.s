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
#define L_SEGSTEP 104
#define L_STRIDE 112
#define L_ZPIN 120
#define L_BMASKS 128

// BLEND gives the bytes of win whose mask byte (loaded from m) is 0 the
// zero point's code in X10: win = ((win ^ zp) & mask) ^ zp.
#define BLEND(m, win) \
	MOVOU m, X13 \
	PXOR X10, win \
	PAND X13, win \
	PXOR X10, win

// MERGE takes the bytes of the window at mem whose mask byte (from m) is
// set into win.
#define MERGE(mem, m, win) \
	MOVOU mem, X11 \
	MOVOU m, X13 \
	PXOR win, X11 \
	PAND X13, X11 \
	PXOR X11, win

// MAC adds the four word pairs that unpack (PUNPCKLBW: bytes 0..7,
// PUNPCKHBW: 8..15) sign-extends from win, times the weight pairs in X9,
// to the dword lanes of acc.
#define MAC(unpack, win, acc) \
	MOVO win, X11 \
	unpack X11, X11 \
	PSRAW $8, X11 \
	PMADDWL X9, X11 \
	PADDL X11, acc

// STORE2 interleaves four even (e) and four odd (o) output lanes into
// eight consecutive dwords at off(AX).
#define STORE2(e, o, off) \
	MOVO e, X11 \
	PUNPCKLLQ o, X11 \
	MOVOU X11, off(AX) \
	PUNPCKHLQ o, e \
	MOVOU e, off+16(AX)

// func convPlanesAccSSE2(acc *int32, xg *int8, l *convPlanesLayout, oc int)
//
// The 128-bit form of convPlanesAccAVX2: a 32-byte window is two
// registers, the bytes outside the plane blend to the zero point's code
// by mask, and each half's words widen by self-interleave and PSRAW.
// Stride 1 accumulates the even outputs in X0..X3 and the odd ones in
// X4..X7; stride 2 sixteen outputs in X0..X3.
TEXT ·convPlanesAccSSE2(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ xg+8(FP), R11
	MOVQ l+16(FP), R8
	MOVQ oc+24(FP), AX
	MOVQ L_SEED(R8), BX
	MOVL (BX)(AX*4), X14
	PSHUFL $0, X14, X14
	MOVQ L_NTAPS(R8), R15
	IMULQ R15, AX
	SHLQ $2, AX
	MOVQ L_W(R8), R12
	ADDQ AX, R12 // the channel's weight pairs
	MOVL L_ZPIN(R8), AX
	MOVL AX, X10
	PUNPCKLBW X10, X10
	PSHUFLW $0, X10, X10
	PSHUFL $0, X10, X10 // the zero point's code in every byte
	MOVQ L_BLOCKS(R8), SI
	MOVQ L_NBLK(R8), CX
	MOVQ L_RECS(R8), R13
	MOVQ L_BMASKS(R8), R10

s2block:
	MOVO X14, X0
	MOVO X14, X1
	MOVO X14, X2
	MOVO X14, X3
	MOVO X14, X4
	MOVO X14, X5
	MOVO X14, X6
	MOVO X14, X7
	MOVLQSX 4(SI), R9
	ADDQ R11, R9 // the block's input base
	XORQ DX, DX
	CMPQ L_STRIDE(R8), $1
	JNE  s2s2

s2s1:
	MOVLQSX (R13), AX
	MOVL (R12)(DX*4), X9
	PSHUFL $0, X9, X9
	MOVOU (R9)(AX*1), X8
	BLEND(0(R10), X8)
	MOVOU 16(R9)(AX*1), X12
	BLEND(16(R10), X12)
	MAC(PUNPCKLBW, X8, X0)
	MAC(PUNPCKHBW, X8, X1)
	MAC(PUNPCKLBW, X12, X2)
	MAC(PUNPCKHBW, X12, X3)
	MOVOU 1(R9)(AX*1), X8
	BLEND(32(R10), X8)
	MOVOU 17(R9)(AX*1), X12
	BLEND(48(R10), X12)
	MAC(PUNPCKLBW, X8, X4)
	MAC(PUNPCKHBW, X8, X5)
	MAC(PUNPCKLBW, X12, X6)
	MAC(PUNPCKHBW, X12, X7)
	ADDQ $12, R13
	ADDQ $64, R10
	INCQ DX
	CMPQ DX, R15
	JLT  s2s1
	MOVLQSX 0(SI), AX
	LEAQ (DI)(AX*4), AX
	STORE2(X0, X4, 0)
	STORE2(X1, X5, 32)
	STORE2(X2, X6, 64)
	STORE2(X3, X7, 96)
	JMP  s2next

s2s2:
	MOVLQSX (R13), AX
	ADDQ $4, R13
	LEAQ (R9)(AX*1), R14 // the first row segment's window
	MOVO X10, X8
	MOVO X10, X12
	MOVQ L_SEGS(R8), BX

s2seg:
	MERGE((R14), 0(R10), X8)
	MERGE(16(R14), 16(R10), X12)
	ADDQ L_SEGSTEP(R8), R14
	ADDQ $4, R13
	ADDQ $32, R10
	DECQ BX
	JNZ  s2seg
	MOVL (R12)(DX*4), X9
	PSHUFL $0, X9, X9
	MAC(PUNPCKLBW, X8, X0)
	MAC(PUNPCKHBW, X8, X1)
	MAC(PUNPCKLBW, X12, X2)
	MAC(PUNPCKHBW, X12, X3)
	INCQ DX
	CMPQ DX, R15
	JLT  s2s2
	MOVLQSX 0(SI), AX
	LEAQ (DI)(AX*4), AX
	MOVOU X0, 0(AX)
	MOVOU X1, 16(AX)
	MOVOU X2, 32(AX)
	MOVOU X3, 48(AX)

s2next:
	ADDQ $16, SI
	DECQ CX
	JNZ  s2block
	RET
