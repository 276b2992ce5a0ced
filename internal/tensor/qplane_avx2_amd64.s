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

// WIDENMAC adds the sixteen word pairs of window win (bytes) times the
// weight pairs in Y9 to the dword lanes of lo (pairs 0..7) and hi
// (8..15); Y5 is clobbered and win's upper half too.
#define WIDENMAC(win, xwin, lo, hi) \
	VPMOVSXBW xwin, Y5 \
	VPMADDWD Y9, Y5, Y5 \
	VPADDD Y5, lo, lo \
	VEXTRACTI128 $1, win, xwin \
	VPMOVSXBW xwin, Y5 \
	VPMADDWD Y9, Y5, Y5 \
	VPADDD Y5, hi, hi

// func convPlanesAccAVX2(acc *int32, xg *int8, l *convPlanesLayout, oc int)
//
// The accumulators of one output plane of channel oc, xg its channel
// group's first input code: every block of the layout seeded with the
// channel's seed, then per tap entry its windows load whole and take the
// zero point's code in their out-of-plane bytes (VPBLENDVB against the
// byte masks), widen, and VPMADDWD against the broadcast weight pair as
// in the AVX-512 body. Stride 1 accumulates the even outputs in Y0/Y1
// and the odd ones in Y2/Y3 and interleaves them on the store; stride 2
// blends each row segment's window into Y4. A block stores all its
// lanes, 32 or 16 dwords from its first output: a short block's extra
// lanes land where the next block or acc's slack is.
TEXT ·convPlanesAccAVX2(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ xg+8(FP), R11
	MOVQ l+16(FP), R8
	MOVQ oc+24(FP), AX
	MOVQ L_SEED(R8), BX
	VPBROADCASTD (BX)(AX*4), Y6
	MOVQ L_NTAPS(R8), R15
	IMULQ R15, AX
	SHLQ $2, AX
	MOVQ L_W(R8), R12
	ADDQ AX, R12 // the channel's weight pairs
	MOVL L_ZPIN(R8), AX
	VMOVD AX, X7
	VPBROADCASTB X7, Y7 // the zero point's code
	MOVQ L_BLOCKS(R8), SI
	MOVQ L_NBLK(R8), CX
	MOVQ L_RECS(R8), R13
	MOVQ L_BMASKS(R8), R10

a2block:
	VMOVDQA Y6, Y0
	VMOVDQA Y6, Y1
	VMOVDQA Y6, Y2
	VMOVDQA Y6, Y3
	MOVLQSX 4(SI), R9
	ADDQ R11, R9 // the block's input base
	XORQ DX, DX
	CMPQ L_STRIDE(R8), $1
	JNE  a2s2

a2s1:
	MOVLQSX (R13), AX
	VMOVDQU (R10), Y5
	VMOVDQU (R9)(AX*1), Y4
	VPBLENDVB Y5, Y4, Y7, Y4
	VMOVDQU 32(R10), Y5
	VMOVDQU 1(R9)(AX*1), Y8
	VPBLENDVB Y5, Y8, Y7, Y8
	VPBROADCASTD (R12)(DX*4), Y9
	WIDENMAC(Y4, X4, Y0, Y1)
	WIDENMAC(Y8, X8, Y2, Y3)
	ADDQ $12, R13
	ADDQ $64, R10
	INCQ DX
	CMPQ DX, R15
	JLT  a2s1
	MOVLQSX 0(SI), AX
	LEAQ (DI)(AX*4), AX
	VPUNPCKLDQ Y2, Y0, Y4 // outputs 0..3 | 8..11
	VPUNPCKHDQ Y2, Y0, Y5 // outputs 4..7 | 12..15
	VPERM2I128 $0x20, Y5, Y4, Y8
	VPERM2I128 $0x31, Y5, Y4, Y9
	VMOVDQU Y8, (AX)
	VMOVDQU Y9, 32(AX)
	VPUNPCKLDQ Y3, Y1, Y4 // outputs 16..19 | 24..27
	VPUNPCKHDQ Y3, Y1, Y5 // outputs 20..23 | 28..31
	VPERM2I128 $0x20, Y5, Y4, Y8
	VPERM2I128 $0x31, Y5, Y4, Y9
	VMOVDQU Y8, 64(AX)
	VMOVDQU Y9, 96(AX)
	JMP  a2next

a2s2:
	MOVLQSX (R13), AX
	ADDQ $4, R13
	LEAQ (R9)(AX*1), R14 // the first row segment's window
	VMOVDQA Y7, Y4
	MOVQ L_SEGS(R8), BX

a2seg:
	VMOVDQU (R10), Y5
	VMOVDQU (R14), Y8
	VPBLENDVB Y5, Y8, Y4, Y4
	ADDQ L_SEGSTEP(R8), R14
	ADDQ $4, R13
	ADDQ $32, R10
	DECQ BX
	JNZ  a2seg
	VPBROADCASTD (R12)(DX*4), Y9
	WIDENMAC(Y4, X4, Y0, Y1)
	INCQ DX
	CMPQ DX, R15
	JLT  a2s2
	MOVLQSX 0(SI), AX
	VMOVDQU Y0, (DI)(AX*4)
	VMOVDQU Y1, 32(DI)(AX*4)

a2next:
	ADDQ $16, SI
	DECQ CX
	JNZ  a2block
	VZEROUPPER
	RET
