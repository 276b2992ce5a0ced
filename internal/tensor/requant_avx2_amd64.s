//go:build amd64 && !purego

#include "textflag.h"

// func requantTileInt8AVX2(dst *int8, ldd int, c *int32, ldc int, rows, cols int, req *Requant, zp int32)
//
// 256-bit form of Requant.Apply + ClampInt8 over a rows x cols tile (cols
// a multiple of 16), one Requant (mult, shift, round: three qwords) per
// row and sixteen accumulators per step, bit-identical to the scalar
// loop:
//
//	dst[i*ldd+j] = sat8(zp + int32((int64(c[i*ldc+j])*mult + round) >> shift))
//
// VPMULDQ gives the exact signed 32x32->64 products (mult is a 31-bit
// mantissa, so it fits the low dword). The 64-bit arithmetic right
// shift AVX2 lacks is synthesized in the unsigned domain: flip the sign
// bit, shift logically, subtract 1<<(63-shift). Taking the low dword of
// each product then matches the scalar int32 truncation, and the
// saturating packs VPACKSSDW+VPACKSSWB compose to exactly ClampInt8.
TEXT ·requantTileInt8AVX2(SB), NOSPLIT, $0-60
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ c+16(FP), SI
	MOVQ ldc+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	MOVQ req+48(FP), R12
	MOVL zp+56(FP), AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13 // zp in every dword
	MOVQ $0x8000000000000000, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11 // sign-bit bias

rt2row:
	TESTQ R10, R10
	JLE  rt2done
	VPBROADCASTQ 0(R12), Y8  // mult
	VMOVQ 8(R12), X10        // shift count for VPSRLQ
	VPBROADCASTQ 16(R12), Y9 // round
	VPSRLQ X10, Y11, Y12     // 1 << (63-shift): unbias after the shift
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ R11, CX

rt2step:
	CMPQ CX, $16
	JLT  rt2next
	VMOVDQU (AX), Y0   // c[0:8]
	VMOVDQU 32(AX), Y1 // c[8:16]

	// Y0 -> Y2: eight requantized int32 lanes.
	VPMULDQ Y8, Y0, Y2 // products of even dwords
	VPSRLQ  $32, Y0, Y3
	VPMULDQ Y8, Y3, Y3 // products of odd dwords
	VPADDQ  Y9, Y2, Y2
	VPADDQ  Y9, Y3, Y3
	VPXOR   Y11, Y2, Y2
	VPXOR   Y11, Y3, Y3
	VPSRLQ  X10, Y2, Y2
	VPSRLQ  X10, Y3, Y3
	VPSUBQ  Y12, Y2, Y2
	VPSUBQ  Y12, Y3, Y3
	VPSLLQ  $32, Y3, Y3
	VPBLENDD $0xAA, Y3, Y2, Y2 // reinterleave even/odd results
	VPADDD  Y13, Y2, Y2

	// Y1 -> Y4, same steps.
	VPMULDQ Y8, Y1, Y4
	VPSRLQ  $32, Y1, Y5
	VPMULDQ Y8, Y5, Y5
	VPADDQ  Y9, Y4, Y4
	VPADDQ  Y9, Y5, Y5
	VPXOR   Y11, Y4, Y4
	VPXOR   Y11, Y5, Y5
	VPSRLQ  X10, Y4, Y4
	VPSRLQ  X10, Y5, Y5
	VPSUBQ  Y12, Y4, Y4
	VPSUBQ  Y12, Y5, Y5
	VPSLLQ  $32, Y5, Y5
	VPBLENDD $0xAA, Y5, Y4, Y4
	VPADDD  Y13, Y4, Y4

	// Saturating narrow 16 x int32 -> 16 x int8, restoring linear order
	// around VPACKSSDW's per-lane interleave.
	VPACKSSDW Y4, Y2, Y2
	VPERMQ    $0xD8, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPACKSSWB X3, X2, X2
	VMOVDQU   X2, (DX)

	ADDQ $64, AX
	ADDQ $16, DX
	SUBQ $16, CX
	JMP  rt2step

rt2next:
	ADDQ R9, SI
	ADDQ R8, DI
	ADDQ $24, R12
	DECQ R10
	JMP  rt2row

rt2done:
	VZEROUPPER
	RET

DATA quantConsts2<>+0(SB)/8, $0xc130000000000000  // -2^20
DATA quantConsts2<>+8(SB)/8, $0x4130000000000000  // 2^20
DATA quantConsts2<>+16(SB)/8, $0x3fe0000000000000 // 0.5
DATA quantConsts2<>+24(SB)/8, $0xbfe0000000000000 // -0.5
DATA quantConsts2<>+32(SB)/8, $0x3ff0000000000000 // 1.0
DATA quantConsts2<>+40(SB)/8, $0xc060000000000000 // -128
DATA quantConsts2<>+48(SB)/8, $0x405fc00000000000 // 127
GLOBL quantConsts2<>(SB), RODATA|NOPTR, $56

// func quantizeSliceAVX2(dst *int8, src *float32, n int, inv, zero float64)
//
// Four codes per step, the arithmetic of the 512-bit body with compare
// masks in vector registers: x = v*inv clamped to +-2^20; trunc(x) plus
// or minus one where the exact remainder reaches a half; plus zero;
// saturated to [-128, 127]; NaN lanes blend to the saturated zero point.
// n is a multiple of 4.
TEXT ·quantizeSliceAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD inv+24(FP), Y14
	VBROADCASTSD zero+32(FP), Y15
	VBROADCASTSD quantConsts2<>+0(SB), Y8
	VBROADCASTSD quantConsts2<>+8(SB), Y9
	VBROADCASTSD quantConsts2<>+16(SB), Y10
	VBROADCASTSD quantConsts2<>+24(SB), Y11
	VBROADCASTSD quantConsts2<>+32(SB), Y12
	VBROADCASTSD quantConsts2<>+40(SB), Y6
	VBROADCASTSD quantConsts2<>+48(SB), Y7
	VMAXPD Y6, Y15, Y13
	VMINPD Y7, Y13, Y13 // the saturated zero point, NaN's code

qs2step:
	CMPQ CX, $4
	JLT  qs2done
	VCVTPS2PD (SI), Y0
	VMULPD Y14, Y0, Y0
	VCMPPD $3, Y0, Y0, Y5 // unordered: NaN lanes
	VMAXPD Y8, Y0, Y0
	VMINPD Y9, Y0, Y0
	VROUNDPD $3, Y0, Y1 // trunc
	VSUBPD Y1, Y0, Y2   // exact remainder
	VCMPPD $13, Y10, Y2, Y3 // remainder >= 0.5
	VCMPPD $2, Y11, Y2, Y4  // remainder <= -0.5
	VANDPD Y12, Y3, Y3
	VANDPD Y12, Y4, Y4
	VADDPD Y3, Y1, Y1
	VSUBPD Y4, Y1, Y1
	VADDPD Y15, Y1, Y1
	VMAXPD Y6, Y1, Y1
	VMINPD Y7, Y1, Y1
	VBLENDVPD Y5, Y13, Y1, Y1
	VCVTTPD2DQY Y1, X1
	VPACKSSDW X1, X1, X1
	VPACKSSWB X1, X1, X1
	VMOVD X1, (DI)
	ADDQ $16, SI
	ADDQ $4, DI
	SUBQ $4, CX
	JMP  qs2step

qs2done:
	VZEROUPPER
	RET
