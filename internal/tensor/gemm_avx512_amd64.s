//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 register-blocked GEMM micro-kernels (TierAVX512, gated on
// F+BW+VL plus OS ZMM state), one body per dtype, and the u8×s8 body
// where the host also reports VNNI. Same contract as the
// narrower tiers (gemm_amd64.s): the first `rows` rows of one tile, A
// read row-major, a full panel on its own K loop, one independent
// accumulator chain per output element, K consumed in order, separate
// VMULPS+VADDPS (never FMA).
// Every body is all-EVEX/VEX and ends with VZEROUPPER, keeping the
// SSE/VEX transition penalty out of surrounding Go code. PREFETCHT0
// pulls the next B row (strided loads defeat the hardware streamer
// when ldb is large). Rows 0..7 sit at SI plus 0, 1, 2, 3, 4, 5, 6, 7
// times lda, with R11 = lda, R12 = 3*lda, R13 = 5*lda, DX = 7*lda in
// bytes (DX is free once the bias is broadcast).

#define F32SEED512(off, c0, c1, c2) \
	VBROADCASTSS off(DX), c0; \
	VMOVAPS      c0, c1; \
	VMOVAPS      c0, c2

#define F32ROW512(a, c0, c1, c2) \
	VBROADCASTSS a, Z27; \
	VMULPS       Z24, Z27, Z28; \
	VADDPS       Z28, c0, c0; \
	VMULPS       Z25, Z27, Z28; \
	VADDPS       Z28, c1, c1; \
	VMULPS       Z26, Z27, Z28; \
	VADDPS       Z28, c2, c2

#define F32STORE512(c0, c1, c2) \
	VMOVUPS c0, 0(R9); \
	VMOVUPS c1, 64(R9); \
	VMOVUPS c2, 128(R9); \
	ADDQ    R10, R9

// func gemmF32AVX512(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
TEXT ·gemmF32AVX512(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R11
	SHLQ $2, R11
	MOVQ rows+32(FP), BX
	MOVQ b_base+40(FP), DI
	MOVQ ldb+64(FP), R8
	SHLQ $2, R8
	MOVQ k+72(FP), CX
	MOVQ bias_base+80(FP), DX
	MOVQ c_base+104(FP), R9
	MOVQ ldc+128(FP), R10
	SHLQ $2, R10

	F32SEED512(0, Z0, Z1, Z2)
	F32SEED512(4, Z3, Z4, Z5)
	F32SEED512(8, Z6, Z7, Z8)
	F32SEED512(12, Z9, Z10, Z11)
	F32SEED512(16, Z12, Z13, Z14)
	F32SEED512(20, Z15, Z16, Z17)
	F32SEED512(24, Z18, Z19, Z20)
	F32SEED512(28, Z21, Z22, Z23)

	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13
	LEAQ (R12)(R11*4), DX

	CMPQ BX, $8
	JNE  f32avx512_loop
	TESTQ CX, CX
	JZ    f32avx512_store

f32avx512_full:
	VMOVUPS 0(DI), Z24
	VMOVUPS 64(DI), Z25
	VMOVUPS 128(DI), Z26
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 128(DI)(R8*1)

	F32ROW512((SI), Z0, Z1, Z2)
	F32ROW512((SI)(R11*1), Z3, Z4, Z5)
	F32ROW512((SI)(R11*2), Z6, Z7, Z8)
	F32ROW512((SI)(R12*1), Z9, Z10, Z11)
	F32ROW512((SI)(R11*4), Z12, Z13, Z14)
	F32ROW512((SI)(R13*1), Z15, Z16, Z17)
	F32ROW512((SI)(R12*2), Z18, Z19, Z20)
	F32ROW512((SI)(DX*1), Z21, Z22, Z23)
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  f32avx512_full
	JMP  f32avx512_store

f32avx512_loop:
	TESTQ CX, CX
	JZ    f32avx512_store
	VMOVUPS 0(DI), Z24
	VMOVUPS 64(DI), Z25
	VMOVUPS 128(DI), Z26
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 128(DI)(R8*1)

	F32ROW512((SI), Z0, Z1, Z2)
	CMPQ BX, $1
	JE   f32avx512_next
	F32ROW512((SI)(R11*1), Z3, Z4, Z5)
	CMPQ BX, $2
	JE   f32avx512_next
	F32ROW512((SI)(R11*2), Z6, Z7, Z8)
	CMPQ BX, $3
	JE   f32avx512_next
	F32ROW512((SI)(R12*1), Z9, Z10, Z11)
	CMPQ BX, $4
	JE   f32avx512_next
	F32ROW512((SI)(R11*4), Z12, Z13, Z14)
	CMPQ BX, $5
	JE   f32avx512_next
	F32ROW512((SI)(R13*1), Z15, Z16, Z17)
	CMPQ BX, $6
	JE   f32avx512_next
	F32ROW512((SI)(R12*2), Z18, Z19, Z20)
	CMPQ BX, $7
	JE   f32avx512_next
	F32ROW512((SI)(DX*1), Z21, Z22, Z23)

f32avx512_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  f32avx512_loop

f32avx512_store:
	F32STORE512(Z0, Z1, Z2)
	CMPQ BX, $1
	JE   f32avx512_done
	F32STORE512(Z3, Z4, Z5)
	CMPQ BX, $2
	JE   f32avx512_done
	F32STORE512(Z6, Z7, Z8)
	CMPQ BX, $3
	JE   f32avx512_done
	F32STORE512(Z9, Z10, Z11)
	CMPQ BX, $4
	JE   f32avx512_done
	F32STORE512(Z12, Z13, Z14)
	CMPQ BX, $5
	JE   f32avx512_done
	F32STORE512(Z15, Z16, Z17)
	CMPQ BX, $6
	JE   f32avx512_done
	F32STORE512(Z18, Z19, Z20)
	CMPQ BX, $7
	JE   f32avx512_done
	F32STORE512(Z21, Z22, Z23)

f32avx512_done:
	VZEROUPPER
	RET

#define I16SEED512(off, c0, c1) \
	VPBROADCASTD off(DX), c0; \
	VMOVDQA32    c0, c1

#define I16ROW512(a, c0, c1) \
	VPBROADCASTD a, Z18; \
	VPMADDWD     Z16, Z18, Z19; \
	VPADDD       Z19, c0, c0; \
	VPMADDWD     Z17, Z18, Z19; \
	VPADDD       Z19, c1, c1

#define I16STORE512(c0, c1) \
	VMOVDQU32 c0, 0(R9); \
	VMOVDQU32 c1, 64(R9); \
	ADDQ      R10, R9

// func gemmI16AVX512(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
//
// A row i holds its K pairs adjacent (a+i*lda, two int16 per pair), so
// one 32-bit broadcast per row and pair step feeds VPMADDWD.
TEXT ·gemmI16AVX512(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R11
	SHLQ $1, R11
	MOVQ rows+32(FP), BX
	MOVQ b_base+40(FP), DI
	MOVQ ldb+64(FP), R8
	SHLQ $1, R8
	MOVQ kPairs+72(FP), CX
	MOVQ bias_base+80(FP), DX
	MOVQ c_base+104(FP), R9
	MOVQ ldc+128(FP), R10
	SHLQ $2, R10

	I16SEED512(0, Z0, Z1)
	I16SEED512(4, Z2, Z3)
	I16SEED512(8, Z4, Z5)
	I16SEED512(12, Z6, Z7)
	I16SEED512(16, Z8, Z9)
	I16SEED512(20, Z10, Z11)
	I16SEED512(24, Z12, Z13)
	I16SEED512(28, Z14, Z15)

	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13
	LEAQ (R12)(R11*4), DX

	CMPQ BX, $8
	JNE  i16avx512_loop
	TESTQ CX, CX
	JZ    i16avx512_store

i16avx512_full:
	VMOVDQU32 0(DI), Z16
	VMOVDQU32 64(DI), Z17
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 64(DI)(R8*1)

	I16ROW512((SI), Z0, Z1)
	I16ROW512((SI)(R11*1), Z2, Z3)
	I16ROW512((SI)(R11*2), Z4, Z5)
	I16ROW512((SI)(R12*1), Z6, Z7)
	I16ROW512((SI)(R11*4), Z8, Z9)
	I16ROW512((SI)(R13*1), Z10, Z11)
	I16ROW512((SI)(R12*2), Z12, Z13)
	I16ROW512((SI)(DX*1), Z14, Z15)
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  i16avx512_full
	JMP  i16avx512_store

i16avx512_loop:
	TESTQ CX, CX
	JZ    i16avx512_store
	VMOVDQU32 0(DI), Z16
	VMOVDQU32 64(DI), Z17
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 64(DI)(R8*1)

	I16ROW512((SI), Z0, Z1)
	CMPQ BX, $1
	JE   i16avx512_next
	I16ROW512((SI)(R11*1), Z2, Z3)
	CMPQ BX, $2
	JE   i16avx512_next
	I16ROW512((SI)(R11*2), Z4, Z5)
	CMPQ BX, $3
	JE   i16avx512_next
	I16ROW512((SI)(R12*1), Z6, Z7)
	CMPQ BX, $4
	JE   i16avx512_next
	I16ROW512((SI)(R11*4), Z8, Z9)
	CMPQ BX, $5
	JE   i16avx512_next
	I16ROW512((SI)(R13*1), Z10, Z11)
	CMPQ BX, $6
	JE   i16avx512_next
	I16ROW512((SI)(R12*2), Z12, Z13)
	CMPQ BX, $7
	JE   i16avx512_next
	I16ROW512((SI)(DX*1), Z14, Z15)

i16avx512_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  i16avx512_loop

i16avx512_store:
	I16STORE512(Z0, Z1)
	CMPQ BX, $1
	JE   i16avx512_done
	I16STORE512(Z2, Z3)
	CMPQ BX, $2
	JE   i16avx512_done
	I16STORE512(Z4, Z5)
	CMPQ BX, $3
	JE   i16avx512_done
	I16STORE512(Z6, Z7)
	CMPQ BX, $4
	JE   i16avx512_done
	I16STORE512(Z8, Z9)
	CMPQ BX, $5
	JE   i16avx512_done
	I16STORE512(Z10, Z11)
	CMPQ BX, $6
	JE   i16avx512_done
	I16STORE512(Z12, Z13)
	CMPQ BX, $7
	JE   i16avx512_done
	I16STORE512(Z14, Z15)

i16avx512_done:
	VZEROUPPER
	RET

#define U8ROW512(a, c0, c1) \
	VPBROADCASTD a, Z18; \
	VPDPBUSD     Z18, Z16, c0; \
	VPDPBUSD     Z18, Z17, c1

// func gemmU8VNNI(a []int8, lda, rows int, b []uint8, ldb, kQuads int, bias []int32, c []int32, ldc int)
//
// The u8×s8 body (AVX512VNNI): A row i holds its K quads adjacent
// (a+i*lda, four int8 weights per quad), so one 32-bit broadcast per row
// and quad step feeds the non-saturating VPDPBUSD, which adds four
// unsigned-byte × signed-byte products into each int32 lane. The rows
// run as 8-row panels over the one B window, each seeded from its eight
// bias entries and stored as the int16 body stores its tile; the last
// panel takes the rows left. AX holds the panel's first A row, R14 the
// rows left and R15 the panel's bias.
TEXT ·gemmU8VNNI(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), AX
	MOVQ lda+24(FP), R11
	MOVQ rows+32(FP), R14
	MOVQ ldb+64(FP), R8
	MOVQ bias_base+80(FP), R15
	MOVQ c_base+104(FP), R9
	MOVQ ldc+128(FP), R10
	SHLQ $2, R10
	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13

u8vnni_panel:
	MOVQ AX, SI
	MOVQ b_base+40(FP), DI
	MOVQ kQuads+72(FP), CX
	MOVQ R14, BX
	CMPQ BX, $8
	JLE  u8vnni_seed
	MOVQ $8, BX

u8vnni_seed:
	MOVQ R15, DX
	I16SEED512(0, Z0, Z1)
	I16SEED512(4, Z2, Z3)
	I16SEED512(8, Z4, Z5)
	I16SEED512(12, Z6, Z7)
	I16SEED512(16, Z8, Z9)
	I16SEED512(20, Z10, Z11)
	I16SEED512(24, Z12, Z13)
	I16SEED512(28, Z14, Z15)
	LEAQ (R12)(R11*4), DX

	CMPQ BX, $8
	JNE  u8vnni_loop
	TESTQ CX, CX
	JZ    u8vnni_store

u8vnni_full:
	VMOVDQU32 0(DI), Z16
	VMOVDQU32 64(DI), Z17
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 64(DI)(R8*1)

	U8ROW512((SI), Z0, Z1)
	U8ROW512((SI)(R11*1), Z2, Z3)
	U8ROW512((SI)(R11*2), Z4, Z5)
	U8ROW512((SI)(R12*1), Z6, Z7)
	U8ROW512((SI)(R11*4), Z8, Z9)
	U8ROW512((SI)(R13*1), Z10, Z11)
	U8ROW512((SI)(R12*2), Z12, Z13)
	U8ROW512((SI)(DX*1), Z14, Z15)
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  u8vnni_full
	JMP  u8vnni_store

u8vnni_loop:
	TESTQ CX, CX
	JZ    u8vnni_store
	VMOVDQU32 0(DI), Z16
	VMOVDQU32 64(DI), Z17
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 64(DI)(R8*1)

	U8ROW512((SI), Z0, Z1)
	CMPQ BX, $1
	JE   u8vnni_next
	U8ROW512((SI)(R11*1), Z2, Z3)
	CMPQ BX, $2
	JE   u8vnni_next
	U8ROW512((SI)(R11*2), Z4, Z5)
	CMPQ BX, $3
	JE   u8vnni_next
	U8ROW512((SI)(R12*1), Z6, Z7)
	CMPQ BX, $4
	JE   u8vnni_next
	U8ROW512((SI)(R11*4), Z8, Z9)
	CMPQ BX, $5
	JE   u8vnni_next
	U8ROW512((SI)(R13*1), Z10, Z11)
	CMPQ BX, $6
	JE   u8vnni_next
	U8ROW512((SI)(R12*2), Z12, Z13)
	CMPQ BX, $7
	JE   u8vnni_next
	U8ROW512((SI)(DX*1), Z14, Z15)

u8vnni_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  u8vnni_loop

u8vnni_store:
	I16STORE512(Z0, Z1)
	CMPQ BX, $1
	JE   u8vnni_done
	I16STORE512(Z2, Z3)
	CMPQ BX, $2
	JE   u8vnni_done
	I16STORE512(Z4, Z5)
	CMPQ BX, $3
	JE   u8vnni_done
	I16STORE512(Z6, Z7)
	CMPQ BX, $4
	JE   u8vnni_done
	I16STORE512(Z8, Z9)
	CMPQ BX, $5
	JE   u8vnni_done
	I16STORE512(Z10, Z11)
	CMPQ BX, $6
	JE   u8vnni_done
	I16STORE512(Z12, Z13)
	CMPQ BX, $7
	JE   u8vnni_done
	I16STORE512(Z14, Z15)
	SUBQ $8, R14
	JLE  u8vnni_done
	LEAQ (AX)(R11*8), AX
	ADDQ $32, R15
	JMP  u8vnni_panel

u8vnni_done:
	VZEROUPPER
	RET
