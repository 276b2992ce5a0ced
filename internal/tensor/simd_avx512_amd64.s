//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 (F+BW+VL, and VBMI for the byte table) bodies of the integer
// kernels in simd.go. Ragged ends run under opmasks, whose masked-off
// elements neither load, store nor fault, so every body here covers its
// whole range.

// Qword indices that put VPUNPCKLWD/VPUNPCKHWD results (which interleave
// within 128-bit lanes) back in linear order: with lo and hi the two
// unpack results, lanes lo0 hi0 lo1 hi1 are elements 0..15 and lanes lo2
// hi2 lo3 hi3 elements 16..31.
DATA unpackLo<>+0(SB)/8, $0
DATA unpackLo<>+8(SB)/8, $1
DATA unpackLo<>+16(SB)/8, $8
DATA unpackLo<>+24(SB)/8, $9
DATA unpackLo<>+32(SB)/8, $2
DATA unpackLo<>+40(SB)/8, $3
DATA unpackLo<>+48(SB)/8, $10
DATA unpackLo<>+56(SB)/8, $11
GLOBL unpackLo<>(SB), RODATA|NOPTR, $64
DATA unpackHi<>+0(SB)/8, $4
DATA unpackHi<>+8(SB)/8, $5
DATA unpackHi<>+16(SB)/8, $12
DATA unpackHi<>+24(SB)/8, $13
DATA unpackHi<>+32(SB)/8, $6
DATA unpackHi<>+40(SB)/8, $7
DATA unpackHi<>+48(SB)/8, $14
DATA unpackHi<>+56(SB)/8, $15
GLOBL unpackHi<>(SB), RODATA|NOPTR, $64

// func widenShiftInt8AVX512(dst *int16, src *int8, n int, zp int16)
//
// dst[i] = int16(src[i]) - zp, thirty-two codes per step (VPMOVSXBW,
// VPSUBW), the ragged end under K2.
TEXT ·widenShiftInt8AVX512(SB), NOSPLIT, $0-26
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVWLZX zp+24(FP), AX
	VPBROADCASTW AX, Z7

wsstep:
	CMPQ CX, $32
	JLT  wstail
	VPMOVSXBW (SI), Z1
	VPSUBW Z7, Z1, Z1
	VMOVDQU16 Z1, (DI)
	ADDQ $32, SI
	ADDQ $64, DI
	SUBQ $32, CX
	JMP  wsstep

wstail:
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVD BX, K2 // the last n%32 codes
	VPMOVSXBW.Z (SI), K2, Z1
	VPSUBW Z7, Z1, Z1
	VMOVDQU16 Z1, K2, (DI)
	VZEROUPPER
	RET

// func packPairShiftInt8AVX512(out *int16, ldo int, src *int8, lds int, taps, n int, zp int16)
//
// Pair p of the tile takes rows 2p and 2p+1 of src (row stride lds, n
// codes each): out[p*ldo+2i] = int16(row 2p [i]) - zp, out[p*ldo+2i+1] =
// int16(row 2p+1 [i]) - zp, and zeros from 2n to ldo. Thirty-two pairs of
// codes per step: widen and shift both rows, interleave, and undo the
// unpacks' lane order with the same permutes as the tap kernel. An odd
// tap count leaves its last row without a partner: that row's loads and
// shift run under an all-zero mask (K5, K6), which makes its lanes 0.
TEXT ·packPairShiftInt8AVX512(SB), NOSPLIT, $0-50
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	MOVQ taps+32(FP), R10
	MOVQ n+40(FP), R11
	MOVWLZX zp+48(FP), AX
	VPBROADCASTW AX, Z7
	VMOVDQU64 unpackLo<>(SB), Z28
	VMOVDQU64 unpackHi<>(SB), Z29
	VPXORD Z6, Z6, Z6
	MOVQ R11, R13
	ANDQ $31, R13 // m: codes in a row's last step
	MOVQ R13, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVD BX, K1 // m codes
	ADDQ CX, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVD BX, K2 // the first 32 of their 2m output words
	SHRQ $32, BX
	KMOVD BX, K3 // and the rest
	MOVQ R11, R12
	SHRQ $5, R12 // full steps per row
	MOVQ R8, AX
	SUBQ R11, AX
	SUBQ R11, AX // ldo-2n words of zero fill
	MOVQ AX, CX
	ANDQ $31, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVD BX, K4 // the fill's last words
	MOVQ AX, R11
	SHRQ $5, R11 // full fill stores
	SHLQ $1, R8 // ldo in bytes
	KXNORD K5, K5, K5
	KMOVD K1, K6 // the partner row's masks
	XORQ R14, R14

pppair:
	CMPQ R14, R10
	JGE  ppdone
	MOVQ SI, AX
	LEAQ (SI)(R9*1), BX
	LEAQ 1(R14), CX
	CMPQ CX, R10
	JLT  pprows
	KXORD K5, K5, K5 // no partner row
	KXORD K6, K6, K6
	MOVQ AX, BX

pprows:
	MOVQ DI, DX
	MOVQ R12, R15

ppstep:
	TESTQ R15, R15
	JLE  pptail
	VPMOVSXBW (AX), Z1
	VPMOVSXBW.Z (BX), K5, Z2
	VPSUBW Z7, Z1, Z1
	VPSUBW.Z Z7, Z2, K5, Z2
	VPUNPCKLWD Z2, Z1, Z3
	VPUNPCKHWD Z2, Z1, Z4
	VMOVDQA64 Z3, Z5
	VPERMT2Q Z4, Z28, Z5
	VPERMT2Q Z4, Z29, Z3
	VMOVDQU16 Z5, (DX)
	VMOVDQU16 Z3, 64(DX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $128, DX
	DECQ R15
	JMP  ppstep

pptail:
	TESTQ R13, R13
	JZ   ppfill
	VPMOVSXBW.Z (AX), K1, Z1
	VPMOVSXBW.Z (BX), K6, Z2
	VPSUBW Z7, Z1, Z1
	VPSUBW.Z Z7, Z2, K6, Z2
	VPUNPCKLWD Z2, Z1, Z3
	VPUNPCKHWD Z2, Z1, Z4
	VMOVDQA64 Z3, Z5
	VPERMT2Q Z4, Z28, Z5
	VPERMT2Q Z4, Z29, Z3
	VMOVDQU16 Z5, K2, (DX)
	VMOVDQU16 Z3, K3, 64(DX)
	LEAQ (DX)(R13*4), DX

ppfill:
	MOVQ R11, R15

ppfillstep:
	TESTQ R15, R15
	JLE  ppfilltail
	VMOVDQU16 Z6, (DX)
	ADDQ $64, DX
	DECQ R15
	JMP  ppfillstep

ppfilltail:
	VMOVDQU16 Z6, K4, (DX)
	LEAQ (SI)(R9*2), SI
	ADDQ R8, DI
	ADDQ $2, R14
	JMP  pppair

ppdone:
	VZEROUPPER
	RET

// QXMASK sets k to the low CX bits of a 32-bit mask: none when CX <= 0,
// all when CX >= 32 (R10 holds 0 and R11 all ones).
#define QXMASK(k) \
	MOVQ    $1, BX; \
	SHLQ    CX, BX; \
	DECQ    BX; \
	CMPQ    CX, $0; \
	CMOVQLE R10, BX; \
	CMPQ    CX, $32; \
	CMOVQGE R11, BX; \
	KMOVD   BX, k

// QXTAIL stores the part of y that lies below the quad's ldo bytes
// (R15 of them left from DX).
#define QXTAIL(off, y) \
	MOVQ     R15, CX; \
	SUBQ     $off, CX; \
	QXMASK(K1); \
	VMOVDQU8 y, K1, off(DX)

// func packQuadXorInt8AVX512(out *uint8, ldo int, src *int8, lds int, taps, n int)
//
// Quad q of the tile takes rows 4q..4q+3 of src (row stride lds, n codes
// each): out[q*ldo+4i+s] = row 4q+s [i] XOR 0x80, and 0x80 from 4n to
// ldo. Thirty-two columns (one packed conv tile) per step: four row
// loads under the column mask (K6; a row past taps loads under an
// all-zero mask, K3-K5, so its lanes are 0 before the flip), the flip,
// two rounds of byte and word unpacks, which leave each 128-bit lane
// holding the quads of its own sixteen columns, and VPERM2I128 to put
// the lanes in column order. Needs AVX512BW and VL only, not VBMI.
TEXT ·packQuadXorInt8AVX512(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R9
	LEAQ (R9)(R9*2), R12
	MOVL $0x80808080, AX
	VPBROADCASTD AX, Y15
	XORQ R10, R10
	MOVQ $-1, R11
	XORQ R14, R14 // 4q

qxquad:
	CMPQ R14, taps+32(FP)
	JGE  qxdone
	MOVQ taps+32(FP), CX
	SUBQ R14, CX // rows left in this quad
	MOVQ R11, BX
	CMPQ CX, $1
	CMOVQLE R10, BX
	KMOVD BX, K3
	MOVQ R11, BX
	CMPQ CX, $2
	CMOVQLE R10, BX
	KMOVD BX, K4
	MOVQ R11, BX
	CMPQ CX, $3
	CMOVQLE R10, BX
	KMOVD BX, K5
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ n+40(FP), R13 // columns left
	MOVQ ldo+8(FP), R15 // output bytes left

qxstep:
	TESTQ R15, R15
	JLE   qxnext
	MOVQ  R13, CX
	QXMASK(K6)
	VMOVDQU8.Z (AX), K6, Y1
	KANDD      K6, K3, K1
	VMOVDQU8.Z (AX)(R9*1), K1, Y2
	KANDD      K6, K4, K1
	VMOVDQU8.Z (AX)(R9*2), K1, Y3
	KANDD      K6, K5, K1
	VMOVDQU8.Z (AX)(R12*1), K1, Y4
	VPXOR      Y15, Y1, Y1
	VPXOR      Y15, Y2, Y2
	VPXOR      Y15, Y3, Y3
	VPXOR      Y15, Y4, Y4
	VPUNPCKLBW Y2, Y1, Y5
	VPUNPCKHBW Y2, Y1, Y6
	VPUNPCKLBW Y4, Y3, Y7
	VPUNPCKHBW Y4, Y3, Y8
	VPUNPCKLWD Y7, Y5, Y9  // lane l: columns 16l+0..3
	VPUNPCKHWD Y7, Y5, Y10 // 16l+4..7
	VPUNPCKLWD Y8, Y6, Y11 // 16l+8..11
	VPUNPCKHWD Y8, Y6, Y12 // 16l+12..15
	VPERM2I128 $0x20, Y10, Y9, Y1  // columns 0..7
	VPERM2I128 $0x20, Y12, Y11, Y2 // 8..15
	VPERM2I128 $0x31, Y10, Y9, Y3  // 16..23
	VPERM2I128 $0x31, Y12, Y11, Y4 // 24..31
	CMPQ R15, $128
	JLT  qxtail
	VMOVDQU Y1, (DX)
	VMOVDQU Y2, 32(DX)
	VMOVDQU Y3, 64(DX)
	VMOVDQU Y4, 96(DX)
	ADDQ $32, AX
	ADDQ $128, DX
	SUBQ $32, R13
	SUBQ $128, R15
	JMP  qxstep

qxtail:
	QXTAIL(0, Y1)
	QXTAIL(32, Y2)
	QXTAIL(64, Y3)
	QXTAIL(96, Y4)

qxnext:
	LEAQ (SI)(R9*4), SI
	ADDQ ldo+8(FP), DI
	ADDQ $4, R14
	JMP  qxquad

qxdone:
	VZEROUPPER
	RET

// func gatherStride2Int8AVX512(dst, src *int8, n int)
//
// dst[i] = src[2i] for i < n: VPMOVWB keeps the low byte of every word.
// src holds 2n-1 bytes, so the last step loads under a mask that stops
// one byte short of a whole word.
TEXT ·gatherStride2Int8AVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R14

gsstep:
	CMPQ R14, $32
	JLE  gslast
	VMOVDQU8 (SI), Z1
	VPMOVWB Z1, Y2
	VMOVDQU Y2, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $32, R14
	JMP  gsstep

gslast:
	TESTQ R14, R14
	JLE  gsdone
	MOVQ R14, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVD BX, K2 // n output bytes
	ADDQ CX, CX
	DECQ CX // 2n-1 source bytes
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVQ BX, K1
	VMOVDQU8.Z (SI), K1, Z1
	VPMOVWB Z1, Y2
	VMOVDQU8 Y2, K2, (DI)

gsdone:
	VZEROUPPER
	RET

DATA byteSignBit<>+0(SB)/8, $0x8080808080808080
GLOBL byteSignBit<>(SB), RODATA|NOPTR, $8

// func sumRowsInt8AVX512(sums *int32, x *int8, rows, cols int)
//
// sums[r] = sum of row r's cols codes. Flipping the sign bit turns a code
// c into c+128 as an unsigned byte; VPSADBW against zero sums eight of
// those per qword, and the 128 per byte lane summed (masked-off lanes of
// the row's ragged end included: they load as 0 and flip to 128) comes
// off at the end.
TEXT ·sumRowsInt8AVX512(SB), NOSPLIT, $0-32
	MOVQ sums+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R10
	MOVQ cols+24(FP), R11
	VPBROADCASTQ byteSignBit<>(SB), Z7
	VPXORD Z6, Z6, Z6
	MOVQ R11, CX
	ANDQ $63, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVQ BX, K2 // the row's last cols%64 codes
	MOVQ R11, R12
	SHRQ $6, R12 // full steps per row
	LEAQ 63(R11), R9
	ANDQ $-64, R9
	SHLQ $7, R9 // 128 per byte lane a row sums

srrow:
	TESTQ R10, R10
	JLE  srdone
	VPXORD Z0, Z0, Z0
	MOVQ R12, R13

srstep:
	TESTQ R13, R13
	JLE  srtail
	VPXORD (SI), Z7, Z1
	VPSADBW Z6, Z1, Z1
	VPADDQ Z1, Z0, Z0
	ADDQ $64, SI
	DECQ R13
	JMP  srstep

srtail:
	TESTQ CX, CX
	JZ   srreduce
	VMOVDQU8.Z (SI), K2, Z1
	VPXORD Z7, Z1, Z1
	VPSADBW Z6, Z1, Z1
	VPADDQ Z1, Z0, Z0
	ADDQ CX, SI

srreduce:
	VEXTRACTI64X4 $1, Z0, Y1
	VPADDQ Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, AX
	SUBQ R9, AX
	MOVL AX, (DI)
	ADDQ $4, DI
	DECQ R10
	JMP  srrow

srdone:
	VZEROUPPER
	RET

// func scaleRowsInt16AVX512(acc *int32, x *int16, f *int16, rows, cols int)
//
// acc[r*cols+i] = int32(f[r]) * int32(x[r*cols+i]): sixteen per step
// (VPMOVSXWD, VPMULLD against the row's broadcast factor).
TEXT ·scaleRowsInt16AVX512(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ f+16(FP), R8
	MOVQ rows+24(FP), R10
	MOVQ cols+32(FP), R11
	MOVQ R11, CX
	ANDQ $15, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVW BX, K2 // the row's last cols%16 elements
	MOVQ R11, R12
	SHRQ $4, R12 // full steps per row

scrow:
	TESTQ R10, R10
	JLE  scdone
	MOVWLSX (R8), AX
	VPBROADCASTD AX, Z4
	MOVQ R12, R13

scstep:
	TESTQ R13, R13
	JLE  sctail
	VPMOVSXWD (SI), Z1
	VPMULLD Z4, Z1, Z1
	VMOVDQU32 Z1, (DI)
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ R13
	JMP  scstep

sctail:
	TESTQ CX, CX
	JZ   scnext
	VPMOVSXWD.Z (SI), K2, Z1
	VPMULLD Z4, Z1, Z1
	VMOVDQU32 Z1, K2, (DI)
	LEAQ (SI)(CX*2), SI
	LEAQ (DI)(CX*4), DI

scnext:
	ADDQ $2, R8
	DECQ R10
	JMP  scrow

scdone:
	VZEROUPPER
	RET

// func lut8RowsVBMI(dst, src *int8, ld, rows, cols int, tabs **[256]int8)
//
// Row r of cols codes (row stride ld) recodes through tabs[r]; a nil
// table skips its row. The table sits in Z8..Z11 and is reloaded only
// when the next row's pointer differs. A code's low seven bits index a
// 128-byte half through VPERMI2B: negative codes (sign bit set) are
// entries 0..127, the rest entries 128..255, and the sign mask picks
// between the two lookups.
TEXT ·lut8RowsVBMI(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R9
	MOVQ rows+24(FP), R10
	MOVQ cols+32(FP), R11
	MOVQ tabs+40(FP), R8
	XORQ R15, R15 // table in Z8..Z11
	MOVQ R11, CX
	ANDQ $63, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVQ BX, K2 // the row's last cols%64 codes
	MOVQ R11, R12
	SHRQ $6, R12 // full steps per row

lurow:
	TESTQ R10, R10
	JLE  ludone
	MOVQ (R8), AX
	TESTQ AX, AX
	JZ   lunext
	CMPQ AX, R15
	JEQ  luloaded
	VMOVDQU64 (AX), Z8
	VMOVDQU64 64(AX), Z9
	VMOVDQU64 128(AX), Z10
	VMOVDQU64 192(AX), Z11
	MOVQ AX, R15

luloaded:
	MOVQ SI, AX
	MOVQ DI, DX
	MOVQ R12, R13

lustep:
	TESTQ R13, R13
	JLE  lutail
	VMOVDQU8 (AX), Z0
	VMOVDQA64 Z0, Z1
	VMOVDQA64 Z0, Z2
	VPERMI2B Z9, Z8, Z1
	VPERMI2B Z11, Z10, Z2
	VPMOVB2M Z0, K3
	VMOVDQU8 Z1, K3, Z2
	VMOVDQU8 Z2, (DX)
	ADDQ $64, AX
	ADDQ $64, DX
	DECQ R13
	JMP  lustep

lutail:
	TESTQ CX, CX
	JZ   lunext
	VMOVDQU8.Z (AX), K2, Z0
	VMOVDQA64 Z0, Z1
	VMOVDQA64 Z0, Z2
	VPERMI2B Z9, Z8, Z1
	VPERMI2B Z11, Z10, Z2
	VPMOVB2M Z0, K3
	VMOVDQU8 Z1, K3, Z2
	VMOVDQU8 Z2, K2, (DX)

lunext:
	ADDQ R9, SI
	ADDQ R9, DI
	ADDQ $8, R8
	DECQ R10
	JMP  lurow

ludone:
	VZEROUPPER
	RET

// func accumLUT32AVX512(acc *int32, src *int8, n int, lut *[256]int32, seed int32, fromAcc bool)
//
// acc[i] = seed + lut[src[i]+128] (seed: the scalar, or acc[i]): sixteen
// sign-extended codes index a gather from the table's middle.
TEXT ·accumLUT32AVX512(SB), NOSPLIT, $0-37
	MOVQ acc+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R14
	MOVQ lut+24(FP), R8
	ADDQ $512, R8 // entry of code 0
	MOVL seed+32(FP), AX
	VPBROADCASTD AX, Z7
	MOVBLZX fromAcc+36(FP), R13
	KXNORW K1, K1, K1

alstep:
	CMPQ R14, $16
	JGE  albody
	TESTQ R14, R14
	JLE  aldone
	MOVQ R14, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVW BX, K1

albody:
	VPMOVSXBD.Z (SI), K1, Z1
	KMOVW K1, K2
	VPXORD Z2, Z2, Z2
	VPGATHERDD (R8)(Z1*4), K2, Z2
	TESTQ R13, R13
	JNZ  alfromacc
	VPADDD Z7, Z2, Z2
	JMP  alwrite

alfromacc:
	VPADDD (DI), Z2, K1, Z2

alwrite:
	VMOVDQU32 Z2, K1, (DI)
	ADDQ $16, SI
	ADDQ $64, DI
	SUBQ $16, R14
	JMP  alstep

aldone:
	VZEROUPPER
	RET

// func narrowSatInt8AVX512(dst *int8, acc *int32, n int)
//
// dst[i] = sat8(acc[i]): VPMOVSDB, sixteen per step.
TEXT ·narrowSatInt8AVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ n+16(FP), R14
	KXNORW K1, K1, K1

nsstep:
	CMPQ R14, $16
	JGE  nsbody
	TESTQ R14, R14
	JLE  nsdone
	MOVQ R14, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX
	KMOVW BX, K1

nsbody:
	VMOVDQU32.Z (SI), K1, Z0
	VPMOVSDB Z0, X1
	VMOVDQU8 X1, K1, (DI)
	ADDQ $64, SI
	ADDQ $16, DI
	SUBQ $16, R14
	JMP  nsstep

nsdone:
	VZEROUPPER
	RET
