//go:build amd64 && !purego

#include "textflag.h"

// RQ16 requantizes the sixteen accumulators in a into sixteen int32
// codes in t, before saturation (a is clobbered).
#define RQ16(a, t) \
	VPMULDQ   Z8, a, t; \
	VPSRLQ    $32, a, a; \
	VPMULDQ   Z8, a, a; \
	VPADDQ    Z9, t, t; \
	VPADDQ    Z9, a, a; \
	VPSRAVQ   Z10, t, t; \
	VPSRAVQ   Z10, a, a; \
	VPSLLQ    $32, a, a; \
	VMOVDQU32 a, K1, t; \
	VPADDD    Z13, t, t

// RQLUT recodes the codes in Z2 through the row's table in Z16..Z19.
#define RQLUT \
	VPMOVB2M  Z2, K3; \
	VMOVDQA64 Z2, Z4; \
	VPERMI2B  Z17, Z16, Z4; \
	VPERMI2B  Z19, Z18, Z2; \
	VMOVDQU8  Z4, K3, Z2

// rtPairOrder gathers the dwords of a thirty-two-code step after
// VPACKSSDW and VPACKSSWB, which leave lane l holding codes 4l..4l+3 and
// 16+4l..16+4l+3, into code order.
DATA rtPairOrder<>+0(SB)/4, $0
DATA rtPairOrder<>+4(SB)/4, $4
DATA rtPairOrder<>+8(SB)/4, $8
DATA rtPairOrder<>+12(SB)/4, $12
DATA rtPairOrder<>+16(SB)/4, $1
DATA rtPairOrder<>+20(SB)/4, $5
DATA rtPairOrder<>+24(SB)/4, $9
DATA rtPairOrder<>+28(SB)/4, $13
DATA rtPairOrder<>+32(SB)/4, $2
DATA rtPairOrder<>+36(SB)/4, $6
DATA rtPairOrder<>+40(SB)/4, $10
DATA rtPairOrder<>+44(SB)/4, $14
DATA rtPairOrder<>+48(SB)/4, $3
DATA rtPairOrder<>+52(SB)/4, $7
DATA rtPairOrder<>+56(SB)/4, $11
DATA rtPairOrder<>+60(SB)/4, $15
GLOBL rtPairOrder<>(SB), RODATA|NOPTR, $64

// func requantTileInt8AVX512(dst *int8, ldd int, c *int32, ldc int, rows, cols int, req *Requant, zp int32, tabs **[256]int8)
//
// 512-bit form of Requant.Apply + ClampInt8 over a rows x cols tile, one
// Requant (mult, shift, round: three qwords) per row, thirty-two
// accumulators per step, then sixteen, and the row's ragged end under
// K2, bit-identical to the scalar loop:
//
//	dst[i*ldd+j] = sat8(zp + int32((int64(c[i*ldc+j])*mult + round) >> shift))
//
// VPMULDQ gives the exact signed 32x32->64 products of the even dwords
// (mult is a 31-bit mantissa, so it fits the low dword) and, after a
// 32-bit shift, of the odd ones; VPSRAVQ is the 64-bit arithmetic shift
// (by a broadcast count: one uop, where VPSRAQ by an XMM count is two);
// the odd results merge back between the even ones with a masked dword
// move under K1 = 0xAAAA, which matches the scalar int32 truncation.
// VPMOVSDB saturates sixteen int32 lanes straight to int8 in order; a
// thirty-two-code step saturates through VPACKSSDW and VPACKSSWB (int16
// then int8, the same clamp) and VPERMD puts its codes in order. When
// tabs is non-nil (a VBMI host), row i's codes then recode through
// tabs[i] in the same step (a nil entry leaves its row alone), as
// lut8RowsVBMI does: the table sits in Z16..Z19 and R14 says a row has
// one, and one lookup recodes a step's thirty-two codes.
TEXT ·requantTileInt8AVX512(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ c+16(FP), SI
	MOVQ ldc+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ req+48(FP), R12
	MOVL zp+56(FP), AX
	VPBROADCASTD AX, Z13
	MOVQ tabs+64(FP), R15
	MOVL $0xAAAA, AX
	KMOVW AX, K1 // odd dword lanes
	MOVQ R11, CX
	ANDQ $15, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVW BX, K2 // the row's last cols%16 accumulators
	SHRQ $4, R11 // full sixteen-accumulator steps per row
	VMOVDQU32 rtPairOrder<>(SB), Z20

rtrow:
	TESTQ R10, R10
	JLE  rtdone
	VPBROADCASTQ 0(R12), Z8  // mult
	VPBROADCASTQ 8(R12), Z10 // shift
	VPBROADCASTQ 16(R12), Z9 // round
	XORQ R14, R14
	TESTQ R15, R15
	JZ   rtloaded
	MOVQ (R15), AX
	ADDQ $8, R15
	TESTQ AX, AX
	JZ   rtloaded
	VMOVDQU64 (AX), Z16
	VMOVDQU64 64(AX), Z17
	VMOVDQU64 128(AX), Z18
	VMOVDQU64 192(AX), Z19
	INCQ R14

rtloaded:
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ R11, R13

rtpair:
	CMPQ R13, $2
	JLT  rtstep
	VMOVDQU32 (AX), Z0
	VMOVDQU32 64(AX), Z1
	RQ16(Z0, Z2)
	RQ16(Z1, Z6)
	VPACKSSDW Z6, Z2, Z2
	VPACKSSWB Z2, Z2, Z2
	VPERMD    Z2, Z20, Z2 // the 32 codes in order
	TESTQ R14, R14
	JZ   rtpairput
	RQLUT

rtpairput:
	VMOVDQU Y2, (DX)
	ADDQ $128, AX
	ADDQ $32, DX
	SUBQ $2, R13
	JMP  rtpair

rtstep:
	TESTQ R13, R13
	JLE  rttail
	VMOVDQU32 (AX), Z0
	RQ16(Z0, Z2)
	VPMOVSDB Z2, X2
	TESTQ R14, R14
	JZ   rtput
	RQLUT

rtput:
	VMOVDQU X2, (DX)
	ADDQ $64, AX
	ADDQ $16, DX

rttail:
	TESTQ CX, CX
	JZ   rtnext
	VMOVDQU32.Z (AX), K2, Z0
	RQ16(Z0, Z2)
	VPMOVSDB Z2, X2
	TESTQ R14, R14
	JZ   rttailput
	RQLUT

rttailput:
	VMOVDQU8 X2, K2, (DX)

rtnext:
	ADDQ R9, SI
	ADDQ R8, DI
	ADDQ $24, R12
	DECQ R10
	JMP  rtrow

rtdone:
	VZEROUPPER
	RET

DATA quantConsts<>+0(SB)/8, $0xc130000000000000  // -2^20
DATA quantConsts<>+8(SB)/8, $0x4130000000000000  // 2^20
DATA quantConsts<>+16(SB)/8, $0x3fe0000000000000 // 0.5
DATA quantConsts<>+24(SB)/8, $0xbfe0000000000000 // -0.5
DATA quantConsts<>+32(SB)/8, $0x3ff0000000000000 // 1.0
DATA quantConsts<>+40(SB)/8, $0xc060000000000000 // -128
DATA quantConsts<>+48(SB)/8, $0x405fc00000000000 // 127
GLOBL quantConsts<>(SB), RODATA|NOPTR, $56

// func quantizeSliceAVX512(dst *int8, src *float32, n int, inv, zero float64)
//
// Eight codes per step, the arithmetic of QuantizeSlice's scalar loop in
// float64: x = v*inv; math.Round(x) as trunc(x) plus or minus one where
// the exact remainder x-trunc(x) reaches a half; plus zero; saturated to
// [-128, 127]; NaN lanes take the saturated zero point. x is clamped to
// +-2^20 first, which cannot change a saturated result for the zero
// points the caller admits and keeps every later step finite. n is a
// multiple of 8.
TEXT ·quantizeSliceAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD inv+24(FP), Z14
	VBROADCASTSD zero+32(FP), Z15
	VBROADCASTSD quantConsts<>+0(SB), Z8
	VBROADCASTSD quantConsts<>+8(SB), Z9
	VBROADCASTSD quantConsts<>+16(SB), Z10
	VBROADCASTSD quantConsts<>+24(SB), Z11
	VBROADCASTSD quantConsts<>+32(SB), Z12
	VBROADCASTSD quantConsts<>+40(SB), Z6
	VBROADCASTSD quantConsts<>+48(SB), Z7
	VMAXPD Z6, Z15, Z13
	VMINPD Z7, Z13, Z13 // the saturated zero point, NaN's code

qsstep:
	CMPQ CX, $8
	JLT  qsdone
	VCVTPS2PD (SI), Z0
	VMULPD Z14, Z0, Z0
	VCMPPD $3, Z0, Z0, K1 // unordered: NaN lanes
	VMAXPD Z8, Z0, Z0
	VMINPD Z9, Z0, Z0
	VRNDSCALEPD $3, Z0, Z1 // trunc
	VSUBPD Z1, Z0, Z2      // exact remainder
	VCMPPD $13, Z10, Z2, K2 // remainder >= 0.5
	VCMPPD $2, Z11, Z2, K3  // remainder <= -0.5
	VADDPD Z12, Z1, K2, Z1
	VSUBPD Z12, Z1, K3, Z1
	VADDPD Z15, Z1, Z1
	VMAXPD Z6, Z1, Z1
	VMINPD Z7, Z1, Z1
	VMOVAPD Z13, K1, Z1
	VCVTTPD2DQ Z1, Y1
	VPMOVSDB Y1, X1
	VMOVQ X1, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JMP  qsstep

qsdone:
	VZEROUPPER
	RET
