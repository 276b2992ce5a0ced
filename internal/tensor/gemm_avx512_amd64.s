//go:build amd64 && !purego && !noasm

#include "textflag.h"

// AVX-512 register-blocked GEMM micro-kernels (TierAVX512, gated on
// F+BW+VL plus OS ZMM state). Same contract as the narrower tiers: one
// independent accumulator chain per output element, K consumed in
// order, separate VMULPS+VADDPS (never FMA) so FP32 results stay
// bitwise identical to the scalar interpreter. Every kernel is
// all-EVEX/VEX and ends with VZEROUPPER, keeping the SSE/VEX
// transition penalty out of surrounding Go code.
//
// PREFETCHT0 hints pull the next B row (strided loads defeat the
// hardware streamer when ldb is large) and the A panel two tiles
// ahead; they are dropped silently on cores that ignore hints.

// func gemmF32AVX512(a []float32, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
//
// 8x48 FP32 tile: Z0..Z23 hold the accumulators (three ZMM per row),
// Z24..Z26 the 48-wide B row, Z27 the A broadcast, Z28 the product.
TEXT ·gemmF32AVX512(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ ldb+48(FP), R8
	SHLQ $2, R8
	MOVQ k+56(FP), CX
	MOVQ bias_base+64(FP), DX
	MOVQ c_base+88(FP), R9
	MOVQ ldc+112(FP), R10
	SHLQ $2, R10

	VBROADCASTSS 0(DX), Z0
	VMOVAPS      Z0, Z1
	VMOVAPS      Z0, Z2
	VBROADCASTSS 4(DX), Z3
	VMOVAPS      Z3, Z4
	VMOVAPS      Z3, Z5
	VBROADCASTSS 8(DX), Z6
	VMOVAPS      Z6, Z7
	VMOVAPS      Z6, Z8
	VBROADCASTSS 12(DX), Z9
	VMOVAPS      Z9, Z10
	VMOVAPS      Z9, Z11
	VBROADCASTSS 16(DX), Z12
	VMOVAPS      Z12, Z13
	VMOVAPS      Z12, Z14
	VBROADCASTSS 20(DX), Z15
	VMOVAPS      Z15, Z16
	VMOVAPS      Z15, Z17
	VBROADCASTSS 24(DX), Z18
	VMOVAPS      Z18, Z19
	VMOVAPS      Z18, Z20
	VBROADCASTSS 28(DX), Z21
	VMOVAPS      Z21, Z22
	VMOVAPS      Z21, Z23

f32avx512_loop:
	TESTQ CX, CX
	JZ    f32avx512_store
	VMOVUPS 0(DI), Z24
	VMOVUPS 64(DI), Z25
	VMOVUPS 128(DI), Z26
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 128(DI)(R8*1)
	PREFETCHT0 256(SI)

	VBROADCASTSS 0(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z0, Z0
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z1, Z1
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z2, Z2

	VBROADCASTSS 4(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z3, Z3
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z4, Z4
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z5, Z5

	VBROADCASTSS 8(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z6, Z6
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z7, Z7
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z8, Z8

	VBROADCASTSS 12(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z9, Z9
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z10, Z10
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z11, Z11

	VBROADCASTSS 16(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z12, Z12
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z13, Z13
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z14, Z14

	VBROADCASTSS 20(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z15, Z15
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z16, Z16
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z17, Z17

	VBROADCASTSS 24(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z18, Z18
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z19, Z19
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z20, Z20

	VBROADCASTSS 28(SI), Z27
	VMULPS       Z24, Z27, Z28
	VADDPS       Z28, Z21, Z21
	VMULPS       Z25, Z27, Z28
	VADDPS       Z28, Z22, Z22
	VMULPS       Z26, Z27, Z28
	VADDPS       Z28, Z23, Z23

	ADDQ $32, SI // MR*4 bytes of A
	ADDQ R8, DI
	DECQ CX
	JMP  f32avx512_loop

f32avx512_store:
	VMOVUPS Z0, 0(R9)
	VMOVUPS Z1, 64(R9)
	VMOVUPS Z2, 128(R9)
	ADDQ    R10, R9
	VMOVUPS Z3, 0(R9)
	VMOVUPS Z4, 64(R9)
	VMOVUPS Z5, 128(R9)
	ADDQ    R10, R9
	VMOVUPS Z6, 0(R9)
	VMOVUPS Z7, 64(R9)
	VMOVUPS Z8, 128(R9)
	ADDQ    R10, R9
	VMOVUPS Z9, 0(R9)
	VMOVUPS Z10, 64(R9)
	VMOVUPS Z11, 128(R9)
	ADDQ    R10, R9
	VMOVUPS Z12, 0(R9)
	VMOVUPS Z13, 64(R9)
	VMOVUPS Z14, 128(R9)
	ADDQ    R10, R9
	VMOVUPS Z15, 0(R9)
	VMOVUPS Z16, 64(R9)
	VMOVUPS Z17, 128(R9)
	ADDQ    R10, R9
	VMOVUPS Z18, 0(R9)
	VMOVUPS Z19, 64(R9)
	VMOVUPS Z20, 128(R9)
	ADDQ    R10, R9
	VMOVUPS Z21, 0(R9)
	VMOVUPS Z22, 64(R9)
	VMOVUPS Z23, 128(R9)
	VZEROUPPER
	RET

// func gemmI16AVX512(a []int16, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
//
// 8x32 quantized tile: Z0..Z15 hold the int32 accumulators (two ZMM
// per row), Z16/Z17 the B pair row (32 pixels x 2 int16), Z18 the
// broadcast A pair, Z19 the VPMADDWD result (requires AVX512BW).
TEXT ·gemmI16AVX512(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ ldb+48(FP), R8
	SHLQ $1, R8 // B row stride: int16 elements -> bytes
	MOVQ kPairs+56(FP), CX
	MOVQ bias_base+64(FP), DX
	MOVQ c_base+88(FP), R9
	MOVQ ldc+112(FP), R10
	SHLQ $2, R10 // C row stride: int32 elements -> bytes

	VPBROADCASTD 0(DX), Z0
	VMOVDQA32    Z0, Z1
	VPBROADCASTD 4(DX), Z2
	VMOVDQA32    Z2, Z3
	VPBROADCASTD 8(DX), Z4
	VMOVDQA32    Z4, Z5
	VPBROADCASTD 12(DX), Z6
	VMOVDQA32    Z6, Z7
	VPBROADCASTD 16(DX), Z8
	VMOVDQA32    Z8, Z9
	VPBROADCASTD 20(DX), Z10
	VMOVDQA32    Z10, Z11
	VPBROADCASTD 24(DX), Z12
	VMOVDQA32    Z12, Z13
	VPBROADCASTD 28(DX), Z14
	VMOVDQA32    Z14, Z15

i16avx512_loop:
	TESTQ CX, CX
	JZ    i16avx512_store
	VMOVDQU32 0(DI), Z16
	VMOVDQU32 64(DI), Z17
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 64(DI)(R8*1)
	PREFETCHT0 256(SI)

	VPBROADCASTD 0(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z0, Z0
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z1, Z1

	VPBROADCASTD 4(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z2, Z2
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z3, Z3

	VPBROADCASTD 8(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z4, Z4
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z5, Z5

	VPBROADCASTD 12(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z6, Z6
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z7, Z7

	VPBROADCASTD 16(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z8, Z8
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z9, Z9

	VPBROADCASTD 20(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z10, Z10
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z11, Z11

	VPBROADCASTD 24(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z12, Z12
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z13, Z13

	VPBROADCASTD 28(SI), Z18
	VPMADDWD     Z16, Z18, Z19
	VPADDD       Z19, Z14, Z14
	VPMADDWD     Z17, Z18, Z19
	VPADDD       Z19, Z15, Z15

	ADDQ $32, SI // MR pairs * 4 bytes of A
	ADDQ R8, DI
	DECQ CX
	JMP  i16avx512_loop

i16avx512_store:
	VMOVDQU32 Z0, 0(R9)
	VMOVDQU32 Z1, 64(R9)
	ADDQ      R10, R9
	VMOVDQU32 Z2, 0(R9)
	VMOVDQU32 Z3, 64(R9)
	ADDQ      R10, R9
	VMOVDQU32 Z4, 0(R9)
	VMOVDQU32 Z5, 64(R9)
	ADDQ      R10, R9
	VMOVDQU32 Z6, 0(R9)
	VMOVDQU32 Z7, 64(R9)
	ADDQ      R10, R9
	VMOVDQU32 Z8, 0(R9)
	VMOVDQU32 Z9, 64(R9)
	ADDQ      R10, R9
	VMOVDQU32 Z10, 0(R9)
	VMOVDQU32 Z11, 64(R9)
	ADDQ      R10, R9
	VMOVDQU32 Z12, 0(R9)
	VMOVDQU32 Z13, 64(R9)
	ADDQ      R10, R9
	VMOVDQU32 Z14, 0(R9)
	VMOVDQU32 Z15, 64(R9)
	VZEROUPPER
	RET

// Row bodies. Same tiles, same B layout and the same per-element chain
// as the kernels above, but A is read row-major (row i at a+i*lda) and
// only the first `rows` tile rows are multiplied and stored: after each
// row's block the K loop and the store sequence leave early once the
// live rows are done. Rows 0..7 sit at SI plus 0, 1, 2, 3, 4, 5, 6, 7
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

// func gemmF32AVX512Rows(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
TEXT ·gemmF32AVX512Rows(SB), NOSPLIT, $0-136
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

f32avx512rows_loop:
	TESTQ CX, CX
	JZ    f32avx512rows_store
	VMOVUPS 0(DI), Z24
	VMOVUPS 64(DI), Z25
	VMOVUPS 128(DI), Z26
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 128(DI)(R8*1)

	F32ROW512((SI), Z0, Z1, Z2)
	CMPQ BX, $1
	JE   f32avx512rows_next
	F32ROW512((SI)(R11*1), Z3, Z4, Z5)
	CMPQ BX, $2
	JE   f32avx512rows_next
	F32ROW512((SI)(R11*2), Z6, Z7, Z8)
	CMPQ BX, $3
	JE   f32avx512rows_next
	F32ROW512((SI)(R12*1), Z9, Z10, Z11)
	CMPQ BX, $4
	JE   f32avx512rows_next
	F32ROW512((SI)(R11*4), Z12, Z13, Z14)
	CMPQ BX, $5
	JE   f32avx512rows_next
	F32ROW512((SI)(R13*1), Z15, Z16, Z17)
	CMPQ BX, $6
	JE   f32avx512rows_next
	F32ROW512((SI)(R12*2), Z18, Z19, Z20)
	CMPQ BX, $7
	JE   f32avx512rows_next
	F32ROW512((SI)(DX*1), Z21, Z22, Z23)

f32avx512rows_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  f32avx512rows_loop

f32avx512rows_store:
	F32STORE512(Z0, Z1, Z2)
	CMPQ BX, $1
	JE   f32avx512rows_done
	F32STORE512(Z3, Z4, Z5)
	CMPQ BX, $2
	JE   f32avx512rows_done
	F32STORE512(Z6, Z7, Z8)
	CMPQ BX, $3
	JE   f32avx512rows_done
	F32STORE512(Z9, Z10, Z11)
	CMPQ BX, $4
	JE   f32avx512rows_done
	F32STORE512(Z12, Z13, Z14)
	CMPQ BX, $5
	JE   f32avx512rows_done
	F32STORE512(Z15, Z16, Z17)
	CMPQ BX, $6
	JE   f32avx512rows_done
	F32STORE512(Z18, Z19, Z20)
	CMPQ BX, $7
	JE   f32avx512rows_done
	F32STORE512(Z21, Z22, Z23)

f32avx512rows_done:
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

// func gemmI16AVX512Rows(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
//
// A row i holds its K pairs adjacent (a+i*lda, two int16 per pair), so
// one 32-bit broadcast per row and pair step feeds VPMADDWD as the
// packed panel does.
TEXT ·gemmI16AVX512Rows(SB), NOSPLIT, $0-136
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

i16avx512rows_loop:
	TESTQ CX, CX
	JZ    i16avx512rows_store
	VMOVDQU32 0(DI), Z16
	VMOVDQU32 64(DI), Z17
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 64(DI)(R8*1)

	I16ROW512((SI), Z0, Z1)
	CMPQ BX, $1
	JE   i16avx512rows_next
	I16ROW512((SI)(R11*1), Z2, Z3)
	CMPQ BX, $2
	JE   i16avx512rows_next
	I16ROW512((SI)(R11*2), Z4, Z5)
	CMPQ BX, $3
	JE   i16avx512rows_next
	I16ROW512((SI)(R12*1), Z6, Z7)
	CMPQ BX, $4
	JE   i16avx512rows_next
	I16ROW512((SI)(R11*4), Z8, Z9)
	CMPQ BX, $5
	JE   i16avx512rows_next
	I16ROW512((SI)(R13*1), Z10, Z11)
	CMPQ BX, $6
	JE   i16avx512rows_next
	I16ROW512((SI)(R12*2), Z12, Z13)
	CMPQ BX, $7
	JE   i16avx512rows_next
	I16ROW512((SI)(DX*1), Z14, Z15)

i16avx512rows_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  i16avx512rows_loop

i16avx512rows_store:
	I16STORE512(Z0, Z1)
	CMPQ BX, $1
	JE   i16avx512rows_done
	I16STORE512(Z2, Z3)
	CMPQ BX, $2
	JE   i16avx512rows_done
	I16STORE512(Z4, Z5)
	CMPQ BX, $3
	JE   i16avx512rows_done
	I16STORE512(Z6, Z7)
	CMPQ BX, $4
	JE   i16avx512rows_done
	I16STORE512(Z8, Z9)
	CMPQ BX, $5
	JE   i16avx512rows_done
	I16STORE512(Z10, Z11)
	CMPQ BX, $6
	JE   i16avx512rows_done
	I16STORE512(Z12, Z13)
	CMPQ BX, $7
	JE   i16avx512rows_done
	I16STORE512(Z14, Z15)

i16avx512rows_done:
	VZEROUPPER
	RET
