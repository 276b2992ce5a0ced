//go:build amd64 && !purego && !noasm

#include "textflag.h"

// Element-wise FP32 kernels (AVX2, 16 elements per iteration). The
// multiply and add stay separate instructions so every element sees
// the same two roundings as the scalar Go loops; VMAXPS places the
// value in the NaN-propagating source position so the ReLU clamp
// leaves NaN and -0 untouched, exactly like `if v < 0 { v = 0 }`.

// func axpyF32AVX2(dst, x *float32, n int, a float32)
TEXT ·axpyF32AVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0

axpy_loop:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMULPS  Y1, Y0, Y1  // a*x, same operand order as the scalar w*xi
	VMULPS  Y2, Y0, Y2
	VMOVUPS (DI), Y3
	VMOVUPS 32(DI), Y4
	VADDPS  Y1, Y3, Y3  // dst + a*x
	VADDPS  Y2, Y4, Y4
	VMOVUPS Y3, (DI)
	VMOVUPS Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     axpy_loop
	VZEROUPPER
	RET

// func gatherStride2F32AVX2(dst, x *float32, n int)
// Even-index deinterleave: VSHUFPS $0x88 picks elements {0,2} of each
// 128-bit lane pair, VPERMPD $0xD8 restores ascending order.
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

// func scaleShiftF32AVX2(p *float32, n int, s, sh float32)
TEXT ·scaleShiftF32AVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS s+16(FP), Y0
	VBROADCASTSS sh+20(FP), Y1

ss_loop:
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	VMULPS  Y0, Y2, Y2  // v*s
	VMULPS  Y0, Y3, Y3
	VADDPS  Y1, Y2, Y2  // v*s + sh
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     ss_loop
	VZEROUPPER
	RET

// func scaleShiftReluF32AVX2(p *float32, n int, s, sh float32)
TEXT ·scaleShiftReluF32AVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS s+16(FP), Y0
	VBROADCASTSS sh+20(FP), Y1
	VXORPS Y4, Y4, Y4

ssr_loop:
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	VMULPS  Y0, Y2, Y2  // v*s
	VMULPS  Y0, Y3, Y3
	VADDPS  Y1, Y2, Y2  // v*s + sh
	VADDPS  Y1, Y3, Y3
	VMAXPS  Y2, Y4, Y2  // max(0, v'); NaN/-0 in src2 pass through
	VMAXPS  Y3, Y4, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     ssr_loop
	VZEROUPPER
	RET

// func reluF32AVX2(p *float32, n int)
TEXT ·reluF32AVX2(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y0, Y0, Y0

relu_loop:
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMAXPS  Y1, Y0, Y1
	VMAXPS  Y2, Y0, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     relu_loop
	VZEROUPPER
	RET

DATA f32three<>+0(SB)/4, $0x40400000 // 3.0
GLOBL f32three<>(SB), RODATA|NOPTR, $4
DATA f32six<>+0(SB)/4, $0x40c00000 // 6.0
GLOBL f32six<>(SB), RODATA|NOPTR, $4

// func hswishF32AVX2(p *float32, n int)
//
// v * relu6(v+3) / 6 in the scalar order: add, clamp, multiply, divide.
// The clamp keeps the scalar branches' NaN and -0 behaviour by putting
// the value in VMAXPS/VMINPS's second source, which those return when
// an operand is NaN or both compare equal.
TEXT ·hswishF32AVX2(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y0, Y0, Y0
	VBROADCASTSS f32three<>(SB), Y1
	VBROADCASTSS f32six<>(SB), Y2

hswish_loop:
	VMOVUPS (DI), Y3
	VMOVUPS 32(DI), Y4
	VADDPS  Y1, Y3, Y5  // t = v + 3
	VADDPS  Y1, Y4, Y6
	VMAXPS  Y5, Y0, Y5  // t < 0 ? 0 : t
	VMAXPS  Y6, Y0, Y6
	VMINPS  Y5, Y2, Y5  // t > 6 ? 6 : t
	VMINPS  Y6, Y2, Y6
	VMULPS  Y5, Y3, Y5  // v * relu6(t)
	VMULPS  Y6, Y4, Y6
	VDIVPS  Y2, Y5, Y5  // ... / 6
	VDIVPS  Y2, Y6, Y6
	VMOVUPS Y5, (DI)
	VMOVUPS Y6, 32(DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     hswish_loop
	VZEROUPPER
	RET

// func hsigmoidF32AVX2(p *float32, n int)
//
// relu6(v+3) / 6: hswishF32AVX2 without the multiply.
TEXT ·hsigmoidF32AVX2(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y0, Y0, Y0
	VBROADCASTSS f32three<>(SB), Y1
	VBROADCASTSS f32six<>(SB), Y2

hsigmoid_loop:
	VMOVUPS (DI), Y3
	VMOVUPS 32(DI), Y4
	VADDPS  Y1, Y3, Y3
	VADDPS  Y1, Y4, Y4
	VMAXPS  Y3, Y0, Y3
	VMAXPS  Y4, Y0, Y4
	VMINPS  Y3, Y2, Y3
	VMINPS  Y4, Y2, Y4
	VDIVPS  Y2, Y3, Y3
	VDIVPS  Y2, Y4, Y4
	VMOVUPS Y3, (DI)
	VMOVUPS Y4, 32(DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     hsigmoid_loop
	VZEROUPPER
	RET
