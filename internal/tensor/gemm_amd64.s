//go:build amd64 && !purego && !noasm

#include "textflag.h"

// Register-blocked GEMM micro-kernels. Every kernel computes one tile
// c[i*ldc+j] = bias[i] + sum_k a[k*MR+i] * b[k*ldb+j] with one
// independent accumulator chain per output element, accumulating in K
// order. The FP32 kernels use separate multiply and add instructions —
// never FMA — so results are bitwise identical to the scalar
// interpreter reference on every tier.

// func gemmF32SSE2(a []float32, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
//
// 6x8 FP32 tile: X0..X11 hold the 6x8 accumulators (two XMM per row),
// X12/X13 the B row, X14 the A broadcast, X15 the product.
TEXT ·gemmF32SSE2(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ ldb+48(FP), R8
	SHLQ $2, R8 // B row stride in bytes
	MOVQ k+56(FP), CX
	MOVQ bias_base+64(FP), DX
	MOVQ c_base+88(FP), R9
	MOVQ ldc+112(FP), R10
	SHLQ $2, R10 // C row stride in bytes

	// acc[i][*] = bias[i]
	MOVSS 0(DX), X0
	SHUFPS $0, X0, X0
	MOVAPS X0, X1
	MOVSS 4(DX), X2
	SHUFPS $0, X2, X2
	MOVAPS X2, X3
	MOVSS 8(DX), X4
	SHUFPS $0, X4, X4
	MOVAPS X4, X5
	MOVSS 12(DX), X6
	SHUFPS $0, X6, X6
	MOVAPS X6, X7
	MOVSS 16(DX), X8
	SHUFPS $0, X8, X8
	MOVAPS X8, X9
	MOVSS 20(DX), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11

f32sse2_loop:
	TESTQ CX, CX
	JZ    f32sse2_store
	MOVUPS 0(DI), X12
	MOVUPS 16(DI), X13

	MOVSS 0(SI), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS X12, X15
	ADDPS X15, X0
	MULPS X13, X14
	ADDPS X14, X1

	MOVSS 4(SI), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS X12, X15
	ADDPS X15, X2
	MULPS X13, X14
	ADDPS X14, X3

	MOVSS 8(SI), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS X12, X15
	ADDPS X15, X4
	MULPS X13, X14
	ADDPS X14, X5

	MOVSS 12(SI), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS X12, X15
	ADDPS X15, X6
	MULPS X13, X14
	ADDPS X14, X7

	MOVSS 16(SI), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS X12, X15
	ADDPS X15, X8
	MULPS X13, X14
	ADDPS X14, X9

	MOVSS 20(SI), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS X12, X15
	ADDPS X15, X10
	MULPS X13, X14
	ADDPS X14, X11

	ADDQ $24, SI // MR*4 bytes of A
	ADDQ R8, DI
	DECQ CX
	JMP  f32sse2_loop

f32sse2_store:
	MOVUPS X0, 0(R9)
	MOVUPS X1, 16(R9)
	ADDQ   R10, R9
	MOVUPS X2, 0(R9)
	MOVUPS X3, 16(R9)
	ADDQ   R10, R9
	MOVUPS X4, 0(R9)
	MOVUPS X5, 16(R9)
	ADDQ   R10, R9
	MOVUPS X6, 0(R9)
	MOVUPS X7, 16(R9)
	ADDQ   R10, R9
	MOVUPS X8, 0(R9)
	MOVUPS X9, 16(R9)
	ADDQ   R10, R9
	MOVUPS X10, 0(R9)
	MOVUPS X11, 16(R9)
	RET

// func gemmF32AVX2(a []float32, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
//
// 6x16 FP32 tile: Y0..Y11 accumulators (two YMM per row), Y12/Y13 the
// B row, Y14 the A broadcast, Y15 the product. VMULPS+VADDPS, no FMA.
TEXT ·gemmF32AVX2(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ ldb+48(FP), R8
	SHLQ $2, R8
	MOVQ k+56(FP), CX
	MOVQ bias_base+64(FP), DX
	MOVQ c_base+88(FP), R9
	MOVQ ldc+112(FP), R10
	SHLQ $2, R10

	VBROADCASTSS 0(DX), Y0
	VMOVAPS      Y0, Y1
	VBROADCASTSS 4(DX), Y2
	VMOVAPS      Y2, Y3
	VBROADCASTSS 8(DX), Y4
	VMOVAPS      Y4, Y5
	VBROADCASTSS 12(DX), Y6
	VMOVAPS      Y6, Y7
	VBROADCASTSS 16(DX), Y8
	VMOVAPS      Y8, Y9
	VBROADCASTSS 20(DX), Y10
	VMOVAPS      Y10, Y11

f32avx2_loop:
	TESTQ CX, CX
	JZ    f32avx2_store
	VMOVUPS 0(DI), Y12
	VMOVUPS 32(DI), Y13
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 256(SI)

	VBROADCASTSS 0(SI), Y14
	VMULPS       Y12, Y14, Y15
	VADDPS       Y15, Y0, Y0
	VMULPS       Y13, Y14, Y15
	VADDPS       Y15, Y1, Y1

	VBROADCASTSS 4(SI), Y14
	VMULPS       Y12, Y14, Y15
	VADDPS       Y15, Y2, Y2
	VMULPS       Y13, Y14, Y15
	VADDPS       Y15, Y3, Y3

	VBROADCASTSS 8(SI), Y14
	VMULPS       Y12, Y14, Y15
	VADDPS       Y15, Y4, Y4
	VMULPS       Y13, Y14, Y15
	VADDPS       Y15, Y5, Y5

	VBROADCASTSS 12(SI), Y14
	VMULPS       Y12, Y14, Y15
	VADDPS       Y15, Y6, Y6
	VMULPS       Y13, Y14, Y15
	VADDPS       Y15, Y7, Y7

	VBROADCASTSS 16(SI), Y14
	VMULPS       Y12, Y14, Y15
	VADDPS       Y15, Y8, Y8
	VMULPS       Y13, Y14, Y15
	VADDPS       Y15, Y9, Y9

	VBROADCASTSS 20(SI), Y14
	VMULPS       Y12, Y14, Y15
	VADDPS       Y15, Y10, Y10
	VMULPS       Y13, Y14, Y15
	VADDPS       Y15, Y11, Y11

	ADDQ $24, SI
	ADDQ R8, DI
	DECQ CX
	JMP  f32avx2_loop

f32avx2_store:
	VMOVUPS Y0, 0(R9)
	VMOVUPS Y1, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y2, 0(R9)
	VMOVUPS Y3, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y4, 0(R9)
	VMOVUPS Y5, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y6, 0(R9)
	VMOVUPS Y7, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y8, 0(R9)
	VMOVUPS Y9, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y10, 0(R9)
	VMOVUPS Y11, 32(R9)
	VZEROUPPER
	RET

// func gemmI16SSE2(a []int16, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
//
// 4x8 quantized tile: X0..X7 hold the 4x8 int32 accumulators, X8/X9
// the B pair row (8 pixels x 2 int16), X10 the broadcast A pair, X11 a
// temp. PMADDWL multiplies adjacent int16 pairs into int32 lanes.
TEXT ·gemmI16SSE2(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ ldb+48(FP), R8
	SHLQ $1, R8 // B row stride: int16 elements -> bytes
	MOVQ kPairs+56(FP), CX
	MOVQ bias_base+64(FP), DX
	MOVQ c_base+88(FP), R9
	MOVQ ldc+112(FP), R10
	SHLQ $2, R10 // C row stride: int32 elements -> bytes

	MOVL   0(DX), AX
	MOVQ   AX, X0
	PSHUFD $0, X0, X0
	MOVOA  X0, X1
	MOVL   4(DX), AX
	MOVQ   AX, X2
	PSHUFD $0, X2, X2
	MOVOA  X2, X3
	MOVL   8(DX), AX
	MOVQ   AX, X4
	PSHUFD $0, X4, X4
	MOVOA  X4, X5
	MOVL   12(DX), AX
	MOVQ   AX, X6
	PSHUFD $0, X6, X6
	MOVOA  X6, X7

i16sse2_loop:
	TESTQ CX, CX
	JZ    i16sse2_store
	MOVOU 0(DI), X8
	MOVOU 16(DI), X9

	MOVL    0(SI), AX
	MOVQ    AX, X10
	PSHUFD  $0, X10, X10
	MOVOA   X10, X11
	PMADDWL X8, X11
	PADDL   X11, X0
	PMADDWL X9, X10
	PADDL   X10, X1

	MOVL    4(SI), AX
	MOVQ    AX, X10
	PSHUFD  $0, X10, X10
	MOVOA   X10, X11
	PMADDWL X8, X11
	PADDL   X11, X2
	PMADDWL X9, X10
	PADDL   X10, X3

	MOVL    8(SI), AX
	MOVQ    AX, X10
	PSHUFD  $0, X10, X10
	MOVOA   X10, X11
	PMADDWL X8, X11
	PADDL   X11, X4
	PMADDWL X9, X10
	PADDL   X10, X5

	MOVL    12(SI), AX
	MOVQ    AX, X10
	PSHUFD  $0, X10, X10
	MOVOA   X10, X11
	PMADDWL X8, X11
	PADDL   X11, X6
	PMADDWL X9, X10
	PADDL   X10, X7

	ADDQ $16, SI // MR pairs * 4 bytes of A
	ADDQ R8, DI
	DECQ CX
	JMP  i16sse2_loop

i16sse2_store:
	MOVOU X0, 0(R9)
	MOVOU X1, 16(R9)
	ADDQ  R10, R9
	MOVOU X2, 0(R9)
	MOVOU X3, 16(R9)
	ADDQ  R10, R9
	MOVOU X4, 0(R9)
	MOVOU X5, 16(R9)
	ADDQ  R10, R9
	MOVOU X6, 0(R9)
	MOVOU X7, 16(R9)
	RET

// func gemmI16AVX2(a []int16, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
//
// 4x16 quantized tile: Y0..Y7 accumulators (two YMM of int32 per row),
// Y8/Y9 the B pair row (16 pixels x 2 int16), Y10 the broadcast A
// pair, Y11 the VPMADDWD result.
TEXT ·gemmI16AVX2(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ ldb+48(FP), R8
	SHLQ $1, R8
	MOVQ kPairs+56(FP), CX
	MOVQ bias_base+64(FP), DX
	MOVQ c_base+88(FP), R9
	MOVQ ldc+112(FP), R10
	SHLQ $2, R10

	VPBROADCASTD 0(DX), Y0
	VMOVDQA      Y0, Y1
	VPBROADCASTD 4(DX), Y2
	VMOVDQA      Y2, Y3
	VPBROADCASTD 8(DX), Y4
	VMOVDQA      Y4, Y5
	VPBROADCASTD 12(DX), Y6
	VMOVDQA      Y6, Y7

i16avx2_loop:
	TESTQ CX, CX
	JZ    i16avx2_store
	VMOVDQU 0(DI), Y8
	VMOVDQU 32(DI), Y9
	PREFETCHT0 (DI)(R8*1)
	PREFETCHT0 256(SI)

	VPBROADCASTD 0(SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y0, Y0
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y1, Y1

	VPBROADCASTD 4(SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y2, Y2
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y3, Y3

	VPBROADCASTD 8(SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y4, Y4
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y5, Y5

	VPBROADCASTD 12(SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y6, Y6
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y7, Y7

	ADDQ $16, SI
	ADDQ R8, DI
	DECQ CX
	JMP  i16avx2_loop

i16avx2_store:
	VMOVDQU Y0, 0(R9)
	VMOVDQU Y1, 32(R9)
	ADDQ    R10, R9
	VMOVDQU Y2, 0(R9)
	VMOVDQU Y3, 32(R9)
	ADDQ    R10, R9
	VMOVDQU Y4, 0(R9)
	VMOVDQU Y5, 32(R9)
	ADDQ    R10, R9
	VMOVDQU Y6, 0(R9)
	VMOVDQU Y7, 32(R9)
	VZEROUPPER
	RET

// Row bodies. Same tiles, same B layout and the same per-element chain
// as the kernels above, but A is read row-major (row i at a+i*lda) and
// only the first `rows` tile rows are multiplied and stored: after each
// row's block the K loop and the store sequence leave early once the
// live rows are done. Rows 0..5 sit at SI plus 0, 1, 2, 3, 4, 5 times
// lda, with R11 = lda, R12 = 3*lda, R13 = 5*lda in bytes. The quantized
// bodies read one adjacent K pair (32 bits) per row and step, which is
// how a row-major int16 row already lies.

#define F32SEEDSSE2(off, c0, c1) \
	MOVSS  off(DX), c0; \
	SHUFPS $0, c0, c0; \
	MOVAPS c0, c1

#define F32ROWSSE2(a, c0, c1) \
	MOVSS  a, X14; \
	SHUFPS $0, X14, X14; \
	MOVAPS X14, X15; \
	MULPS  X12, X15; \
	ADDPS  X15, c0; \
	MULPS  X13, X14; \
	ADDPS  X14, c1

#define F32STORESSE2(c0, c1) \
	MOVUPS c0, 0(R9); \
	MOVUPS c1, 16(R9); \
	ADDQ   R10, R9

// func gemmF32SSE2Rows(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
TEXT ·gemmF32SSE2Rows(SB), NOSPLIT, $0-136
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
	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13

	F32SEEDSSE2(0, X0, X1)
	F32SEEDSSE2(4, X2, X3)
	F32SEEDSSE2(8, X4, X5)
	F32SEEDSSE2(12, X6, X7)
	F32SEEDSSE2(16, X8, X9)
	F32SEEDSSE2(20, X10, X11)

f32sse2rows_loop:
	TESTQ CX, CX
	JZ    f32sse2rows_store
	MOVUPS 0(DI), X12
	MOVUPS 16(DI), X13

	F32ROWSSE2((SI), X0, X1)
	CMPQ BX, $1
	JE   f32sse2rows_next
	F32ROWSSE2((SI)(R11*1), X2, X3)
	CMPQ BX, $2
	JE   f32sse2rows_next
	F32ROWSSE2((SI)(R11*2), X4, X5)
	CMPQ BX, $3
	JE   f32sse2rows_next
	F32ROWSSE2((SI)(R12*1), X6, X7)
	CMPQ BX, $4
	JE   f32sse2rows_next
	F32ROWSSE2((SI)(R11*4), X8, X9)
	CMPQ BX, $5
	JE   f32sse2rows_next
	F32ROWSSE2((SI)(R13*1), X10, X11)

f32sse2rows_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  f32sse2rows_loop

f32sse2rows_store:
	F32STORESSE2(X0, X1)
	CMPQ BX, $1
	JE   f32sse2rows_done
	F32STORESSE2(X2, X3)
	CMPQ BX, $2
	JE   f32sse2rows_done
	F32STORESSE2(X4, X5)
	CMPQ BX, $3
	JE   f32sse2rows_done
	F32STORESSE2(X6, X7)
	CMPQ BX, $4
	JE   f32sse2rows_done
	F32STORESSE2(X8, X9)
	CMPQ BX, $5
	JE   f32sse2rows_done
	F32STORESSE2(X10, X11)

f32sse2rows_done:
	RET

#define F32SEEDAVX2(off, c0, c1) \
	VBROADCASTSS off(DX), c0; \
	VMOVAPS      c0, c1

#define F32ROWAVX2(a, c0, c1) \
	VBROADCASTSS a, Y14; \
	VMULPS       Y12, Y14, Y15; \
	VADDPS       Y15, c0, c0; \
	VMULPS       Y13, Y14, Y15; \
	VADDPS       Y15, c1, c1

#define F32STOREAVX2(c0, c1) \
	VMOVUPS c0, 0(R9); \
	VMOVUPS c1, 32(R9); \
	ADDQ    R10, R9

// func gemmF32AVX2Rows(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
TEXT ·gemmF32AVX2Rows(SB), NOSPLIT, $0-136
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
	LEAQ (R11)(R11*2), R12
	LEAQ (R11)(R11*4), R13

	F32SEEDAVX2(0, Y0, Y1)
	F32SEEDAVX2(4, Y2, Y3)
	F32SEEDAVX2(8, Y4, Y5)
	F32SEEDAVX2(12, Y6, Y7)
	F32SEEDAVX2(16, Y8, Y9)
	F32SEEDAVX2(20, Y10, Y11)

f32avx2rows_loop:
	TESTQ CX, CX
	JZ    f32avx2rows_store
	VMOVUPS 0(DI), Y12
	VMOVUPS 32(DI), Y13
	PREFETCHT0 (DI)(R8*1)

	F32ROWAVX2((SI), Y0, Y1)
	CMPQ BX, $1
	JE   f32avx2rows_next
	F32ROWAVX2((SI)(R11*1), Y2, Y3)
	CMPQ BX, $2
	JE   f32avx2rows_next
	F32ROWAVX2((SI)(R11*2), Y4, Y5)
	CMPQ BX, $3
	JE   f32avx2rows_next
	F32ROWAVX2((SI)(R12*1), Y6, Y7)
	CMPQ BX, $4
	JE   f32avx2rows_next
	F32ROWAVX2((SI)(R11*4), Y8, Y9)
	CMPQ BX, $5
	JE   f32avx2rows_next
	F32ROWAVX2((SI)(R13*1), Y10, Y11)

f32avx2rows_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  f32avx2rows_loop

f32avx2rows_store:
	F32STOREAVX2(Y0, Y1)
	CMPQ BX, $1
	JE   f32avx2rows_done
	F32STOREAVX2(Y2, Y3)
	CMPQ BX, $2
	JE   f32avx2rows_done
	F32STOREAVX2(Y4, Y5)
	CMPQ BX, $3
	JE   f32avx2rows_done
	F32STOREAVX2(Y6, Y7)
	CMPQ BX, $4
	JE   f32avx2rows_done
	F32STOREAVX2(Y8, Y9)
	CMPQ BX, $5
	JE   f32avx2rows_done
	F32STOREAVX2(Y10, Y11)

f32avx2rows_done:
	VZEROUPPER
	RET

#define I16SEEDSSE2(off, c0, c1) \
	MOVL   off(DX), AX; \
	MOVQ   AX, c0; \
	PSHUFD $0, c0, c0; \
	MOVOA  c0, c1

#define I16ROWSSE2(a, c0, c1) \
	MOVL    a, AX; \
	MOVQ    AX, X10; \
	PSHUFD  $0, X10, X10; \
	MOVOA   X10, X11; \
	PMADDWL X8, X11; \
	PADDL   X11, c0; \
	PMADDWL X9, X10; \
	PADDL   X10, c1

#define I16STORESSE2(c0, c1) \
	MOVOU c0, 0(R9); \
	MOVOU c1, 16(R9); \
	ADDQ  R10, R9

// func gemmI16SSE2Rows(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
TEXT ·gemmI16SSE2Rows(SB), NOSPLIT, $0-136
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
	LEAQ (R11)(R11*2), R12

	I16SEEDSSE2(0, X0, X1)
	I16SEEDSSE2(4, X2, X3)
	I16SEEDSSE2(8, X4, X5)
	I16SEEDSSE2(12, X6, X7)

i16sse2rows_loop:
	TESTQ CX, CX
	JZ    i16sse2rows_store
	MOVOU 0(DI), X8
	MOVOU 16(DI), X9

	I16ROWSSE2((SI), X0, X1)
	CMPQ BX, $1
	JE   i16sse2rows_next
	I16ROWSSE2((SI)(R11*1), X2, X3)
	CMPQ BX, $2
	JE   i16sse2rows_next
	I16ROWSSE2((SI)(R11*2), X4, X5)
	CMPQ BX, $3
	JE   i16sse2rows_next
	I16ROWSSE2((SI)(R12*1), X6, X7)

i16sse2rows_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  i16sse2rows_loop

i16sse2rows_store:
	I16STORESSE2(X0, X1)
	CMPQ BX, $1
	JE   i16sse2rows_done
	I16STORESSE2(X2, X3)
	CMPQ BX, $2
	JE   i16sse2rows_done
	I16STORESSE2(X4, X5)
	CMPQ BX, $3
	JE   i16sse2rows_done
	I16STORESSE2(X6, X7)

i16sse2rows_done:
	RET

#define I16SEEDAVX2(off, c0, c1) \
	VPBROADCASTD off(DX), c0; \
	VMOVDQA      c0, c1

#define I16ROWAVX2(a, c0, c1) \
	VPBROADCASTD a, Y10; \
	VPMADDWD     Y8, Y10, Y11; \
	VPADDD       Y11, c0, c0; \
	VPMADDWD     Y9, Y10, Y11; \
	VPADDD       Y11, c1, c1

#define I16STOREAVX2(c0, c1) \
	VMOVDQU c0, 0(R9); \
	VMOVDQU c1, 32(R9); \
	ADDQ    R10, R9

// func gemmI16AVX2Rows(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
TEXT ·gemmI16AVX2Rows(SB), NOSPLIT, $0-136
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
	LEAQ (R11)(R11*2), R12

	I16SEEDAVX2(0, Y0, Y1)
	I16SEEDAVX2(4, Y2, Y3)
	I16SEEDAVX2(8, Y4, Y5)
	I16SEEDAVX2(12, Y6, Y7)

i16avx2rows_loop:
	TESTQ CX, CX
	JZ    i16avx2rows_store
	VMOVDQU 0(DI), Y8
	VMOVDQU 32(DI), Y9
	PREFETCHT0 (DI)(R8*1)

	I16ROWAVX2((SI), Y0, Y1)
	CMPQ BX, $1
	JE   i16avx2rows_next
	I16ROWAVX2((SI)(R11*1), Y2, Y3)
	CMPQ BX, $2
	JE   i16avx2rows_next
	I16ROWAVX2((SI)(R11*2), Y4, Y5)
	CMPQ BX, $3
	JE   i16avx2rows_next
	I16ROWAVX2((SI)(R12*1), Y6, Y7)

i16avx2rows_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  i16avx2rows_loop

i16avx2rows_store:
	I16STOREAVX2(Y0, Y1)
	CMPQ BX, $1
	JE   i16avx2rows_done
	I16STOREAVX2(Y2, Y3)
	CMPQ BX, $2
	JE   i16avx2rows_done
	I16STOREAVX2(Y4, Y5)
	CMPQ BX, $3
	JE   i16avx2rows_done
	I16STOREAVX2(Y6, Y7)

i16avx2rows_done:
	VZEROUPPER
	RET
