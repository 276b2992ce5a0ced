//go:build amd64 && !purego

#include "textflag.h"

// Register-blocked GEMM micro-kernels, one body per tier and dtype.
// Each computes the first `rows` (1..MR) rows of one MR x NR tile,
// c[i*ldc+j] = bias[i] + sum_k a[i*lda+k] * b[k*ldb+j], with one
// independent accumulator chain per output element, accumulating in K
// order. A is read row-major (row i at a+i*lda) and only the live rows
// are multiplied and stored: after each row's block the K loop and the
// store sequence leave early once the live rows are done. A full panel
// (rows == MR) takes its own K loop without those compares, chosen once
// per call (the compares cost a full panel 1-9% on an AVX-512 host, on
// every tier). The FP32 kernels use separate multiply and add
// instructions (never FMA), so results are bitwise identical to the
// scalar interpreter on every tier. Rows 0..5 sit at SI plus 0, 1, 2,
// 3, 4, 5 times lda, with R11 = lda, R12 = 3*lda, R13 = 5*lda in bytes.
// The quantized bodies read one adjacent K pair (32 bits) per row and
// step, which is how a row-major int16 row with its K padded to a pair
// already lies, and multiply it with PMADDWD against the B row of NR
// pairs.

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

// func gemmF32SSE2(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
TEXT ·gemmF32SSE2(SB), NOSPLIT, $0-136
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

	CMPQ BX, $6
	JNE  f32sse2_loop
	TESTQ CX, CX
	JZ    f32sse2_store

f32sse2_full:
	MOVUPS 0(DI), X12
	MOVUPS 16(DI), X13

	F32ROWSSE2((SI), X0, X1)
	F32ROWSSE2((SI)(R11*1), X2, X3)
	F32ROWSSE2((SI)(R11*2), X4, X5)
	F32ROWSSE2((SI)(R12*1), X6, X7)
	F32ROWSSE2((SI)(R11*4), X8, X9)
	F32ROWSSE2((SI)(R13*1), X10, X11)
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  f32sse2_full
	JMP  f32sse2_store

f32sse2_loop:
	TESTQ CX, CX
	JZ    f32sse2_store
	MOVUPS 0(DI), X12
	MOVUPS 16(DI), X13

	F32ROWSSE2((SI), X0, X1)
	CMPQ BX, $1
	JE   f32sse2_next
	F32ROWSSE2((SI)(R11*1), X2, X3)
	CMPQ BX, $2
	JE   f32sse2_next
	F32ROWSSE2((SI)(R11*2), X4, X5)
	CMPQ BX, $3
	JE   f32sse2_next
	F32ROWSSE2((SI)(R12*1), X6, X7)
	CMPQ BX, $4
	JE   f32sse2_next
	F32ROWSSE2((SI)(R11*4), X8, X9)
	CMPQ BX, $5
	JE   f32sse2_next
	F32ROWSSE2((SI)(R13*1), X10, X11)

f32sse2_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  f32sse2_loop

f32sse2_store:
	F32STORESSE2(X0, X1)
	CMPQ BX, $1
	JE   f32sse2_done
	F32STORESSE2(X2, X3)
	CMPQ BX, $2
	JE   f32sse2_done
	F32STORESSE2(X4, X5)
	CMPQ BX, $3
	JE   f32sse2_done
	F32STORESSE2(X6, X7)
	CMPQ BX, $4
	JE   f32sse2_done
	F32STORESSE2(X8, X9)
	CMPQ BX, $5
	JE   f32sse2_done
	F32STORESSE2(X10, X11)

f32sse2_done:
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

// func gemmF32AVX2(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
TEXT ·gemmF32AVX2(SB), NOSPLIT, $0-136
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

	CMPQ BX, $6
	JNE  f32avx2_loop
	TESTQ CX, CX
	JZ    f32avx2_store

f32avx2_full:
	VMOVUPS 0(DI), Y12
	VMOVUPS 32(DI), Y13
	PREFETCHT0 (DI)(R8*1)

	F32ROWAVX2((SI), Y0, Y1)
	F32ROWAVX2((SI)(R11*1), Y2, Y3)
	F32ROWAVX2((SI)(R11*2), Y4, Y5)
	F32ROWAVX2((SI)(R12*1), Y6, Y7)
	F32ROWAVX2((SI)(R11*4), Y8, Y9)
	F32ROWAVX2((SI)(R13*1), Y10, Y11)
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  f32avx2_full
	JMP  f32avx2_store

f32avx2_loop:
	TESTQ CX, CX
	JZ    f32avx2_store
	VMOVUPS 0(DI), Y12
	VMOVUPS 32(DI), Y13
	PREFETCHT0 (DI)(R8*1)

	F32ROWAVX2((SI), Y0, Y1)
	CMPQ BX, $1
	JE   f32avx2_next
	F32ROWAVX2((SI)(R11*1), Y2, Y3)
	CMPQ BX, $2
	JE   f32avx2_next
	F32ROWAVX2((SI)(R11*2), Y4, Y5)
	CMPQ BX, $3
	JE   f32avx2_next
	F32ROWAVX2((SI)(R12*1), Y6, Y7)
	CMPQ BX, $4
	JE   f32avx2_next
	F32ROWAVX2((SI)(R11*4), Y8, Y9)
	CMPQ BX, $5
	JE   f32avx2_next
	F32ROWAVX2((SI)(R13*1), Y10, Y11)

f32avx2_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  f32avx2_loop

f32avx2_store:
	F32STOREAVX2(Y0, Y1)
	CMPQ BX, $1
	JE   f32avx2_done
	F32STOREAVX2(Y2, Y3)
	CMPQ BX, $2
	JE   f32avx2_done
	F32STOREAVX2(Y4, Y5)
	CMPQ BX, $3
	JE   f32avx2_done
	F32STOREAVX2(Y6, Y7)
	CMPQ BX, $4
	JE   f32avx2_done
	F32STOREAVX2(Y8, Y9)
	CMPQ BX, $5
	JE   f32avx2_done
	F32STOREAVX2(Y10, Y11)

f32avx2_done:
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

// func gemmI16SSE2(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
TEXT ·gemmI16SSE2(SB), NOSPLIT, $0-136
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

	CMPQ BX, $4
	JNE  i16sse2_loop
	TESTQ CX, CX
	JZ    i16sse2_store

i16sse2_full:
	MOVOU 0(DI), X8
	MOVOU 16(DI), X9

	I16ROWSSE2((SI), X0, X1)
	I16ROWSSE2((SI)(R11*1), X2, X3)
	I16ROWSSE2((SI)(R11*2), X4, X5)
	I16ROWSSE2((SI)(R12*1), X6, X7)
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  i16sse2_full
	JMP  i16sse2_store

i16sse2_loop:
	TESTQ CX, CX
	JZ    i16sse2_store
	MOVOU 0(DI), X8
	MOVOU 16(DI), X9

	I16ROWSSE2((SI), X0, X1)
	CMPQ BX, $1
	JE   i16sse2_next
	I16ROWSSE2((SI)(R11*1), X2, X3)
	CMPQ BX, $2
	JE   i16sse2_next
	I16ROWSSE2((SI)(R11*2), X4, X5)
	CMPQ BX, $3
	JE   i16sse2_next
	I16ROWSSE2((SI)(R12*1), X6, X7)

i16sse2_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  i16sse2_loop

i16sse2_store:
	I16STORESSE2(X0, X1)
	CMPQ BX, $1
	JE   i16sse2_done
	I16STORESSE2(X2, X3)
	CMPQ BX, $2
	JE   i16sse2_done
	I16STORESSE2(X4, X5)
	CMPQ BX, $3
	JE   i16sse2_done
	I16STORESSE2(X6, X7)

i16sse2_done:
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

// func gemmI16AVX2(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
TEXT ·gemmI16AVX2(SB), NOSPLIT, $0-136
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

	CMPQ BX, $4
	JNE  i16avx2_loop
	TESTQ CX, CX
	JZ    i16avx2_store

i16avx2_full:
	VMOVDQU 0(DI), Y8
	VMOVDQU 32(DI), Y9
	PREFETCHT0 (DI)(R8*1)

	I16ROWAVX2((SI), Y0, Y1)
	I16ROWAVX2((SI)(R11*1), Y2, Y3)
	I16ROWAVX2((SI)(R11*2), Y4, Y5)
	I16ROWAVX2((SI)(R12*1), Y6, Y7)
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  i16avx2_full
	JMP  i16avx2_store

i16avx2_loop:
	TESTQ CX, CX
	JZ    i16avx2_store
	VMOVDQU 0(DI), Y8
	VMOVDQU 32(DI), Y9
	PREFETCHT0 (DI)(R8*1)

	I16ROWAVX2((SI), Y0, Y1)
	CMPQ BX, $1
	JE   i16avx2_next
	I16ROWAVX2((SI)(R11*1), Y2, Y3)
	CMPQ BX, $2
	JE   i16avx2_next
	I16ROWAVX2((SI)(R11*2), Y4, Y5)
	CMPQ BX, $3
	JE   i16avx2_next
	I16ROWAVX2((SI)(R12*1), Y6, Y7)

i16avx2_next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JMP  i16avx2_loop

i16avx2_store:
	I16STOREAVX2(Y0, Y1)
	CMPQ BX, $1
	JE   i16avx2_done
	I16STOREAVX2(Y2, Y3)
	CMPQ BX, $2
	JE   i16avx2_done
	I16STOREAVX2(Y4, Y5)
	CMPQ BX, $3
	JE   i16avx2_done
	I16STOREAVX2(Y6, Y7)

i16avx2_done:
	VZEROUPPER
	RET
