//go:build amd64 && !purego && !noasm

#include "textflag.h"

// func requantTileInt8AVX512(dst *int8, ldd int, c *int32, ldc int, rows, cols int, req *Requant, zp int32, tabs **[256]int8)
//
// 512-bit form of Requant.Apply + ClampInt8 over a rows x cols tile, one
// Requant (mult, shift, round: three qwords) per row, sixteen
// accumulators per step and the row's ragged end under K2, bit-identical
// to the scalar loop:
//
//	dst[i*ldd+j] = sat8(zp + int32((int64(c[i*ldc+j])*mult + round) >> shift))
//
// VPMULDQ gives the exact signed 32x32->64 products of the even dwords
// (mult is a 31-bit mantissa, so it fits the low dword) and, after a
// 32-bit shift, of the odd ones; VPSRAQ is the 64-bit arithmetic shift;
// the odd results merge back between the even ones with a masked dword
// move under K1 = 0xAAAA, which matches the scalar int32 truncation; and
// VPMOVSDB saturates sixteen int32 lanes straight to int8 in order. When
// tabs is non-nil (a VBMI host), row i's codes then recode through
// tabs[i] in the same step (a nil entry leaves its row alone), as
// lut8RowsVBMI does: the table sits in Z16..Z19 and R14 says a row has
// one.
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
	SHRQ $4, R11 // full steps per row

rtrow:
	TESTQ R10, R10
	JLE  rtdone
	VPBROADCASTQ 0(R12), Z8  // mult
	VMOVQ 8(R12), X10        // shift count for VPSRAQ
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

rtstep:
	TESTQ R13, R13
	JLE  rttail
	VMOVDQU32 (AX), Z0
	VPMULDQ Z8, Z0, Z2 // products of even dwords
	VPSRLQ  $32, Z0, Z3
	VPMULDQ Z8, Z3, Z3 // products of odd dwords
	VPADDQ  Z9, Z2, Z2
	VPADDQ  Z9, Z3, Z3
	VPSRAQ  X10, Z2, Z2
	VPSRAQ  X10, Z3, Z3
	VPSLLQ  $32, Z3, Z3
	VMOVDQU32 Z3, K1, Z2 // odd results into the odd dword lanes
	VPADDD  Z13, Z2, Z2
	VPMOVSDB Z2, X2
	TESTQ R14, R14
	JZ   rtput
	VMOVDQA64 Z2, Z4
	VMOVDQA64 Z2, Z5
	VPERMI2B Z17, Z16, Z4 // entries 0..127: the negative codes
	VPERMI2B Z19, Z18, Z5 // entries 128..255
	VPMOVB2M Z2, K3
	VMOVDQU8 Z4, K3, Z5
	VMOVDQA64 Z5, Z2

rtput:
	VMOVDQU X2, (DX)
	ADDQ $64, AX
	ADDQ $16, DX
	DECQ R13
	JMP  rtstep

rttail:
	TESTQ CX, CX
	JZ   rtnext
	VMOVDQU32.Z (AX), K2, Z0
	VPMULDQ Z8, Z0, Z2
	VPSRLQ  $32, Z0, Z3
	VPMULDQ Z8, Z3, Z3
	VPADDQ  Z9, Z2, Z2
	VPADDQ  Z9, Z3, Z3
	VPSRAQ  X10, Z2, Z2
	VPSRAQ  X10, Z3, Z3
	VPSLLQ  $32, Z3, Z3
	VMOVDQU32 Z3, K1, Z2
	VPADDD  Z13, Z2, Z2
	VPMOVSDB Z2, X2
	TESTQ R14, R14
	JZ   rttailput
	VMOVDQA64 Z2, Z4
	VMOVDQA64 Z2, Z5
	VPERMI2B Z17, Z16, Z4
	VPERMI2B Z19, Z18, Z5
	VPMOVB2M Z2, K3
	VMOVDQU8 Z4, K3, Z5
	VMOVDQA64 Z5, Z2

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
