//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the FP32 kernels in elementwise.go. A multiply and the
// add that follows it stay separate instructions so every element sees
// the same two roundings as the portable Go loops; VMAXPS and VMINPS
// take the value in their second source, which they return when an
// operand is NaN or both compare equal, so a clamp leaves NaN and -0
// exactly where the scalar `if v < 0 { v = 0 }` leaves them.

// One tap of a chunk: AX takes the tap's window offset and Y8 its
// weight, then CT_MAC adds the rounded product w*x of one vector of the
// window to its accumulator, s + w*x.
#define CT_TAP \
	MOVLQSX (R8)(R12*4), AX \
	VBROADCASTSS (R9)(R12*4), Y8
#define CT_MAC(off, acc) \
	VMULPS off(SI)(AX*4), Y8, Y9 \
	VADDPS Y9, acc, acc

// func convTapsF32AVX2(acc *float32, n int, x *float32, offs *int32, w *float32, taps int, bias float32, fromAcc bool)
//
// Thirty-two outputs per chunk in Y0..Y3, then at most one chunk of
// sixteen and one of eight (n is a multiple of 8; a short chunk's time
// is its chain of adds, whatever its width): the accumulators take the
// seed, every tap adds its rounded product w[t]*x[offs[t]+i] in tap
// order, and each vector is stored once. The tap tables are read from
// their ends with R12 running from -taps up to 0. Two 256-bit ports
// retire the multiply and the add, four cycles a tap and chunk; wider
// chunks and 512-bit vectors measured the same.
TEXT ·convTapsF32AVX2(SB), NOSPLIT, $0-53
	MOVQ acc+0(FP), DI
	MOVQ n+8(FP), R14
	MOVQ x+16(FP), SI
	MOVQ offs+24(FP), R8
	MOVQ w+32(FP), R9
	MOVQ taps+40(FP), R10
	VBROADCASTSS bias+48(FP), Y15
	MOVBLZX fromAcc+52(FP), R13
	LEAQ (R8)(R10*4), R8
	LEAQ (R9)(R10*4), R9
	NEGQ R10

ctf32chunk:
	CMPQ R14, $32
	JLT  ctf16chunk
	TESTQ R13, R13
	JNZ  ctf32fromacc
	VMOVAPS Y15, Y0
	VMOVAPS Y15, Y1
	VMOVAPS Y15, Y2
	VMOVAPS Y15, Y3
	JMP  ctf32taps

ctf32fromacc:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3

ctf32taps:
	MOVQ R10, R12

ctf32tap:
	CT_TAP
	CT_MAC(0, Y0)
	CT_MAC(32, Y1)
	CT_MAC(64, Y2)
	CT_MAC(96, Y3)
	INCQ R12
	JNZ  ctf32tap
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, R14
	JMP  ctf32chunk

ctf16chunk:
	CMPQ R14, $16
	JLT  ctf8chunk
	TESTQ R13, R13
	JNZ  ctf16fromacc
	VMOVAPS Y15, Y0
	VMOVAPS Y15, Y1
	JMP  ctf16taps

ctf16fromacc:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1

ctf16taps:
	MOVQ R10, R12

ctf16tap:
	CT_TAP
	CT_MAC(0, Y0)
	CT_MAC(32, Y1)
	INCQ R12
	JNZ  ctf16tap
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, R14

ctf8chunk:
	CMPQ R14, $8
	JLT  ctfdone
	VMOVAPS Y15, Y0
	TESTQ R13, R13
	JZ   ctf8taps
	VMOVUPS (DI), Y0

ctf8taps:
	MOVQ R10, R12

ctf8tap:
	CT_TAP
	CT_MAC(0, Y0)
	INCQ R12
	JNZ  ctf8tap
	VMOVUPS Y0, (DI)

ctfdone:
	VZEROUPPER
	RET

// func padRowsF32AVX2(dst *float32, rowOff *int32, rows int, src *float32, cols int)
//
// Row r: cols values to dst[rowOff[r]:]. A row of eight or more moves
// its last eight values first, one vector that may overlap the steps of
// eight that follow from the row's start; a shorter row moves four
// values, then value by value.
TEXT ·padRowsF32AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rowOff+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ src+24(FP), SI
	MOVQ cols+32(FP), R11
	LEAQ (R11*4), R13 // a source row in bytes
	LEAQ -8(R11), R12 // steps cover the columns below cols-8
	CMPQ R11, $8
	JLT  prshortrow

prrow:
	MOVLQSX (R8), AX
	LEAQ (DI)(AX*4), DX
	VMOVUPS -32(SI)(R11*4), Y1
	VMOVUPS Y1, -32(DX)(R11*4)
	TESTQ R12, R12
	JZ   prnext
	XORQ BX, BX

prstep:
	VMOVUPS (SI)(BX*4), Y1
	VMOVUPS Y1, (DX)(BX*4)
	ADDQ $8, BX
	CMPQ BX, R12
	JLT  prstep

prnext:
	ADDQ R13, SI
	ADDQ $4, R8
	DECQ R10
	JNZ  prrow
	VZEROUPPER
	RET

prshortrow:
	MOVLQSX (R8), AX
	LEAQ (DI)(AX*4), DX
	MOVQ SI, BX
	MOVQ R11, CX
	CMPQ CX, $4
	JLT  prscalar
	VMOVUPS (BX), X1
	VMOVUPS X1, (DX)
	ADDQ $16, BX
	ADDQ $16, DX
	SUBQ $4, CX
	JZ   prshortnext

prscalar:
	MOVL (BX), AX
	MOVL AX, (DX)
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JNZ  prscalar

prshortnext:
	ADDQ R13, SI
	ADDQ $4, R8
	DECQ R10
	JNZ  prshortrow
	VZEROUPPER
	RET

// PS2_SPLIT16 de-interleaves the sixteen values at src (the second eight
// at src8) into eight even ones at dstE and eight odd ones at dstO:
// VSHUFPS $0x88 / $0xdd pick the even / odd elements of each 128-bit
// lane pair of one load pair and VPERMPD $0xd8 restores ascending order.
#define PS2_SPLIT16(src, src8, dstE, dstO) \
	VMOVUPS src, Y1 \
	VMOVUPS src8, Y2 \
	VSHUFPS $0x88, Y2, Y1, Y3 \
	VSHUFPS $0xdd, Y2, Y1, Y4 \
	VPERMPD $0xd8, Y3, Y3 \
	VPERMPD $0xd8, Y4, Y4 \
	VMOVUPS Y3, dstE \
	VMOVUPS Y4, dstO

// func padSplit2RowsF32AVX2(dst *float32, rowOff *int32, rows int, offE, offO int, src *float32, cols int)
//
// Even columns to dst[rowOff[r]+offE+i], odd ones to
// dst[rowOff[r]+offO+i]. With E the even part of cols, a row of E >= 16
// splits its last sixteen paired values first, one step that may
// overlap the steps of sixteen that follow from the row's start; a
// shorter row takes one step of eight at 128 bits, then value pairs. An
// odd last column goes to the even phase by itself.
TEXT ·padSplit2RowsF32AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ rowOff+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ offE+24(FP), R14
	MOVQ offO+32(FP), R15
	MOVQ src+40(FP), SI
	MOVQ cols+48(FP), R11
	LEAQ (DI)(R14*4), R14 // even phase of a row at offset 0
	LEAQ (DI)(R15*4), R15 // odd phase
	LEAQ (R11*4), R13     // a source row in bytes
	MOVQ R11, R9
	ANDQ $-2, R9 // E
	LEAQ -16(R9), R12 // steps cover the paired columns below E-16
	CMPQ R9, $16
	JLT  ps2shortrow

ps2row:
	MOVLQSX (R8), AX
	LEAQ (R14)(AX*4), DX
	LEAQ (R15)(AX*4), BX
	PS2_SPLIT16(-64(SI)(R9*4), -32(SI)(R9*4), -32(DX)(R9*2), -32(BX)(R9*2))
	TESTQ R12, R12
	JZ   ps2odd
	XORQ CX, CX

ps2step:
	PS2_SPLIT16((SI)(CX*4), 32(SI)(CX*4), (DX)(CX*2), (BX)(CX*2))
	ADDQ $16, CX
	CMPQ CX, R12
	JLT  ps2step

ps2odd:
	CMPQ R9, R11
	JEQ  ps2next
	MOVL (SI)(R9*4), AX
	MOVL AX, (DX)(R9*2)

ps2next:
	ADDQ R13, SI
	ADDQ $4, R8
	DECQ R10
	JNZ  ps2row
	VZEROUPPER
	RET

ps2shortrow:
	MOVLQSX (R8), AX
	LEAQ (R14)(AX*4), DX
	LEAQ (R15)(AX*4), BX
	XORQ CX, CX
	CMPQ R9, $8
	JLT  ps2pair
	VMOVUPS (SI), X1
	VMOVUPS 16(SI), X2
	VSHUFPS $0x88, X2, X1, X3
	VSHUFPS $0xdd, X2, X1, X4
	VMOVUPS X3, (DX)
	VMOVUPS X4, (BX)
	MOVQ $8, CX

ps2pair:
	CMPQ CX, R9
	JGE  ps2shortodd
	MOVL (SI)(CX*4), AX
	MOVL AX, (DX)(CX*2)
	MOVL 4(SI)(CX*4), AX
	MOVL AX, (BX)(CX*2)
	ADDQ $2, CX
	JMP  ps2pair

ps2shortodd:
	CMPQ R9, R11
	JEQ  ps2shortnext
	MOVL (SI)(R9*4), AX
	MOVL AX, (DX)(R9*2)

ps2shortnext:
	ADDQ R13, SI
	ADDQ $4, R8
	DECQ R10
	JNZ  ps2shortrow
	VZEROUPPER
	RET

// func gatherStride2F32AVX2(dst, x *float32, n int)
// Even-index deinterleave, as in padSplit2RowsF32AVX2.
TEXT ·gatherStride2F32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

gathers2_loop:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VSHUFPS $0x88, Y2, Y1, Y1
	VPERMPD $0xd8, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     gathers2_loop
	VZEROUPPER
	RET

DATA f32three<>+0(SB)/4, $0x40400000 // 3.0
GLOBL f32three<>(SB), RODATA|NOPTR, $4
DATA f32six<>+0(SB)/4, $0x40c00000 // 6.0
GLOBL f32six<>(SB), RODATA|NOPTR, $4

// The steps of the tile epilogue on the vector in Y3, with Y0 = scale,
// Y1 = shift, Y4 = 0, Y5 = 3, Y6 = 6 and Y7 scratch: v*s then + sh; the
// hard activations in the scalar order, t = v + 3, t < 0 ? 0 : t,
// t > 6 ? 6 : t, v * t (h-swish only), then a true divide by 6.
// EP_SCALE loads a row's scale and shift and steps to the next row's.
#define EP_PLAIN
#define EP_SCALE \
	VBROADCASTSS (R12), Y0 \
	VBROADCASTSS (R13), Y1 \
	ADDQ R14, R12 \
	ADDQ R14, R13
#define EP_AFFINE \
	VMULPS Y0, Y3, Y3 \
	VADDPS Y1, Y3, Y3
#define EP_RELU \
	VMAXPS Y3, Y4, Y3
#define EP_HSIGMOID \
	VADDPS Y5, Y3, Y3 \
	VMAXPS Y3, Y4, Y3 \
	VMINPS Y3, Y6, Y3 \
	VDIVPS Y6, Y3, Y3
#define EP_HSWISH \
	VADDPS Y5, Y3, Y7 \
	VMAXPS Y7, Y4, Y7 \
	VMINPS Y7, Y6, Y7 \
	VMULPS Y7, Y3, Y3 \
	VDIVPS Y6, Y3, Y3

// EP_TILE is the tile under one (affine, activation) pair. A row takes
// eight values per step up to column R15 = cols&^7, one step of four,
// then single values; the narrow loads zero the rest of Y3, so the same
// full-width steps serve all three.
#define EP_TILE(row, l8, l4, l1, next, SCALE, AFFINE, ACT) \
row: \
	SCALE \
	XORQ BX, BX \
	TESTQ R15, R15 \
	JZ   l4 \
l8: \
	VMOVUPS (SI)(BX*4), Y3 \
	AFFINE \
	ACT \
	VMOVUPS Y3, (DI)(BX*4) \
	ADDQ $8, BX \
	CMPQ BX, R15 \
	JLT  l8 \
	CMPQ BX, R11 \
	JGE  next \
l4: \
	LEAQ 4(BX), CX \
	CMPQ CX, R11 \
	JGT  l1 \
	VMOVUPS (SI)(BX*4), X3 \
	AFFINE \
	ACT \
	VMOVUPS X3, (DI)(BX*4) \
	MOVQ CX, BX \
	CMPQ BX, R11 \
	JGE  next \
l1: \
	VMOVSS (SI)(BX*4), X3 \
	AFFINE \
	ACT \
	VMOVSS X3, (DI)(BX*4) \
	INCQ BX \
	CMPQ BX, R11 \
	JLT  l1 \
next: \
	ADDQ R9, SI \
	ADDQ R8, DI \
	DECQ R10 \
	JNZ  row \
	VZEROUPPER \
	RET

// func epilogueTileF32AVX2(dst *float32, ldd int, src *float32, lds, rows, cols int, scale, shift *float32, step, act int)
//
// dst[r*ldd+i] = act(src[r*lds+i]*scale[r*step] + shift[r*step]), one
// pass, in the loop of the call's (affine, activation) pair; act is 0
// none, 1 ReLU, 2 h-swish, 3 h-sigmoid.
TEXT ·epilogueTileF32AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ scale+48(FP), R12
	MOVQ shift+56(FP), R13
	MOVQ step+64(FP), R14
	MOVQ act+72(FP), AX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R14
	MOVQ R11, R15
	ANDQ $-8, R15
	VXORPS Y4, Y4, Y4
	VBROADCASTSS f32three<>(SB), Y5
	VBROADCASTSS f32six<>(SB), Y6
	TESTQ R12, R12
	JZ   eptplain
	CMPQ AX, $1
	JLT  epta0
	JEQ  epta1
	CMPQ AX, $2
	JEQ  epta2
	JMP  epta3

eptplain:
	CMPQ AX, $1
	JLT  eptp0
	JEQ  eptp1
	CMPQ AX, $2
	JEQ  eptp2
	JMP  eptp3

	EP_TILE(epta0, epta0w8, epta0w4, epta0w1, epta0n, EP_SCALE, EP_AFFINE, EP_PLAIN)
	EP_TILE(epta1, epta1w8, epta1w4, epta1w1, epta1n, EP_SCALE, EP_AFFINE, EP_RELU)
	EP_TILE(epta2, epta2w8, epta2w4, epta2w1, epta2n, EP_SCALE, EP_AFFINE, EP_HSWISH)
	EP_TILE(epta3, epta3w8, epta3w4, epta3w1, epta3n, EP_SCALE, EP_AFFINE, EP_HSIGMOID)
	EP_TILE(eptp0, eptp0w8, eptp0w4, eptp0w1, eptp0n, EP_PLAIN, EP_PLAIN, EP_PLAIN)
	EP_TILE(eptp1, eptp1w8, eptp1w4, eptp1w1, eptp1n, EP_PLAIN, EP_PLAIN, EP_RELU)
	EP_TILE(eptp2, eptp2w8, eptp2w4, eptp2w1, eptp2n, EP_PLAIN, EP_PLAIN, EP_HSWISH)
	EP_TILE(eptp3, eptp3w8, eptp3w4, eptp3w1, eptp3n, EP_PLAIN, EP_PLAIN, EP_HSIGMOID)
