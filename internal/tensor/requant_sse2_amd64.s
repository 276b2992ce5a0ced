//go:build amd64 && !purego

#include "textflag.h"

// REQ4 requantizes the four accumulators at off(AX) into the four dwords
// of out, clobbering X1..X4. SSE2 has only the unsigned 32x32->64
// multiply: for a negative accumulator a, PMULUDQ sees a+2^32, so the
// product is mult<<32 too large and that is subtracted where the sign
// mask says so. The 64-bit arithmetic shift is synthesized in the
// unsigned domain as in the 256-bit body.
#define REQ4(off, out) \
	MOVOU off(AX), out; \
	MOVOU out, X1; \
	PSRLQ $32, X1; \
	MOVOU out, X2; \
	PSRAL $31, X2; \
	PAND X8, X2; \
	PSLLQ $32, X2; \
	PMULULQ X8, out; \
	PSUBQ X2, out; \
	MOVOU X1, X4; \
	PSRAL $31, X4; \
	PAND X8, X4; \
	PSLLQ $32, X4; \
	PMULULQ X8, X1; \
	PSUBQ X4, X1; \
	PADDQ X9, out; \
	PADDQ X9, X1; \
	PXOR X11, out; \
	PXOR X11, X1; \
	PSRLQ X10, out; \
	PSRLQ X10, X1; \
	PSUBQ X12, out; \
	PSUBQ X12, X1; \
	PAND X14, out; \
	PSLLQ $32, X1; \
	POR X1, out; \
	PADDL X13, out

// func requantTileInt8SSE2(dst *int8, ldd int, c *int32, ldc int, rows, cols int, req *Requant, zp int32)
//
// 128-bit form of Requant.Apply + ClampInt8 over a rows x cols tile (cols
// a multiple of 16), one Requant (mult, shift, round: three qwords) per
// row and sixteen accumulators per step, bit-identical to the scalar
// loop:
//
//	dst[i*ldd+j] = sat8(zp + int32((int64(c[i*ldc+j])*mult + round) >> shift))
TEXT ·requantTileInt8SSE2(SB), NOSPLIT, $0-60
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ c+16(FP), SI
	MOVQ ldc+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ req+48(FP), R12
	MOVL zp+56(FP), AX
	MOVL AX, X13
	PSHUFD $0, X13, X13 // zp in every dword
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X11
	PSHUFD $0x44, X11, X11 // sign-bit bias in both qwords
	MOVQ $0x00000000ffffffff, AX
	MOVQ AX, X14
	PSHUFD $0x44, X14, X14 // low dword of both qwords

rt1row:
	TESTQ R10, R10
	JLE  rt1done
	MOVQ 0(R12), X8
	PSHUFD $0x44, X8, X8 // mult in both qwords (its high dword is 0)
	MOVQ 8(R12), X10     // shift count for PSRLQ
	MOVQ 16(R12), X9
	PSHUFD $0x44, X9, X9 // round in both qwords
	MOVOU X11, X12
	PSRLQ X10, X12 // 1 << (63-shift): unbias after the shift
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ R11, CX

rt1step:
	CMPQ CX, $16
	JLT  rt1next
	REQ4(0, X0)
	REQ4(16, X5)
	REQ4(32, X6)
	REQ4(48, X7)
	PACKSSLW X5, X0
	PACKSSLW X7, X6
	PACKSSWB X6, X0
	MOVOU X0, (DX)
	ADDQ $64, AX
	ADDQ $16, DX
	SUBQ $16, CX
	JMP  rt1step

rt1next:
	ADDQ R9, SI
	ADDQ R8, DI
	ADDQ $24, R12
	DECQ R10
	JMP  rt1row

rt1done:
	RET

DATA quantConsts1<>+0(SB)/8, $0xc130000000000000  // -2^20
DATA quantConsts1<>+8(SB)/8, $0x4130000000000000  // 2^20
DATA quantConsts1<>+16(SB)/8, $0x3fe0000000000000 // 0.5
DATA quantConsts1<>+24(SB)/8, $0xbfe0000000000000 // -0.5
DATA quantConsts1<>+32(SB)/8, $0x3ff0000000000000 // 1.0
DATA quantConsts1<>+40(SB)/8, $0xc060000000000000 // -128
DATA quantConsts1<>+48(SB)/8, $0x405fc00000000000 // 127
GLOBL quantConsts1<>(SB), RODATA|NOPTR, $56

// func quantizeSliceSSE2(dst *int8, src *float32, n int, inv, zero float64)
//
// Two codes per step, the arithmetic of the wider bodies without a
// rounding instruction: x = v*inv clamped to +-2^20, so that
// CVTTPD2DQ/CVTDQ2PD is an exact trunc; plus or minus one where the exact
// remainder reaches a half; plus zero; saturated to [-128, 127]; NaN
// lanes take the saturated zero point. n is a multiple of 2.
TEXT ·quantizeSliceSSE2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVSD inv+24(FP), X14
	UNPCKLPD X14, X14
	MOVSD zero+32(FP), X15
	UNPCKLPD X15, X15
	MOVSD quantConsts1<>+0(SB), X8
	UNPCKLPD X8, X8
	MOVSD quantConsts1<>+8(SB), X9
	UNPCKLPD X9, X9
	MOVSD quantConsts1<>+16(SB), X10
	UNPCKLPD X10, X10
	MOVSD quantConsts1<>+24(SB), X11
	UNPCKLPD X11, X11
	MOVSD quantConsts1<>+32(SB), X12
	UNPCKLPD X12, X12
	MOVSD quantConsts1<>+40(SB), X6
	UNPCKLPD X6, X6
	MOVSD quantConsts1<>+48(SB), X7
	UNPCKLPD X7, X7
	MOVAPD X15, X13
	MAXPD X6, X13
	MINPD X7, X13 // the saturated zero point, NaN's code

qs1step:
	CMPQ CX, $2
	JLT  qs1done
	MOVQ (SI), X0
	CVTPS2PD X0, X0
	MULPD X14, X0
	MOVAPD X0, X5
	CMPPD X0, X5, 3 // unordered: NaN lanes
	MAXPD X8, X0
	MINPD X9, X0
	CVTTPD2PL X0, X1
	CVTPL2PD X1, X1 // trunc
	MOVAPD X0, X2
	SUBPD X1, X2 // exact remainder
	MOVAPD X10, X3
	CMPPD X2, X3, 2 // 0.5 <= remainder
	MOVAPD X2, X4
	CMPPD X11, X4, 2 // remainder <= -0.5
	ANDPD X12, X3
	ANDPD X12, X4
	ADDPD X3, X1
	SUBPD X4, X1
	ADDPD X15, X1
	MAXPD X6, X1
	MINPD X7, X1
	MOVAPD X5, X2
	ANDPD X13, X2
	ANDNPD X1, X5
	ORPD X2, X5 // NaN lanes take the zero point
	CVTTPD2PL X5, X5
	PACKSSLW X5, X5
	PACKSSWB X5, X5
	MOVL X5, AX
	MOVW AX, (DI)
	ADDQ $8, SI
	ADDQ $2, DI
	SUBQ $2, CX
	JMP  qs1step

qs1done:
	RET
