//go:build amd64 && !purego && !noasm

package tensor

// amd64 micro-kernel registration. SSE2 is baseline so its kernels are
// always available; the AVX2 and AVX-512 kernels register only when
// the detector confirms both the ISA subsets and OS vector state.

import "vedliot/internal/tensor/cpu"

// gemmF32SSE2 computes a 6x8 FP32 tile with MULPS+ADDPS (no FMA).
//
//go:noescape
func gemmF32SSE2(a []float32, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

// gemmF32AVX2 computes a 6x16 FP32 tile with VMULPS+VADDPS (no FMA).
//
//go:noescape
func gemmF32AVX2(a []float32, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

// gemmF32AVX512 computes an 8x48 FP32 tile on ZMM registers with
// VMULPS+VADDPS (no FMA).
//
//go:noescape
func gemmF32AVX512(a []float32, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

// gemmI16SSE2 computes a 4x8 quantized tile with PMADDWD.
//
//go:noescape
func gemmI16SSE2(a []int16, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

// gemmI16AVX2 computes a 4x16 quantized tile with VPMADDWD.
//
//go:noescape
func gemmI16AVX2(a []int16, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

// gemmI16AVX512 computes an 8x32 quantized tile on ZMM registers with
// VPMADDWD (requires AVX512BW).
//
//go:noescape
func gemmI16AVX512(a []int16, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

// The Rows functions are the tiers' row bodies (GemmKernelF32.RunRows,
// GemmKernelI16.RunRows): the same tile with A read row-major and only
// the first rows rows multiplied and stored.

//go:noescape
func gemmF32SSE2Rows(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

//go:noescape
func gemmF32AVX2Rows(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

//go:noescape
func gemmF32AVX512Rows(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

//go:noescape
func gemmI16SSE2Rows(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

//go:noescape
func gemmI16AVX2Rows(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

//go:noescape
func gemmI16AVX512Rows(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

func init() {
	gemmF32Kernels = append(gemmF32Kernels,
		GemmKernelF32{MR: 6, NR: 8, Tier: cpu.TierSSE2, Run: gemmF32SSE2, RunRows: gemmF32SSE2Rows})
	gemmI16Kernels = append(gemmI16Kernels,
		GemmKernelI16{MR: 4, NR: 8, Tier: cpu.TierSSE2, Run: gemmI16SSE2, RunRows: gemmI16SSE2Rows})
	if cpu.Detect().AVX2 {
		gemmF32Kernels = append(gemmF32Kernels,
			GemmKernelF32{MR: 6, NR: 16, Tier: cpu.TierAVX2, Run: gemmF32AVX2, RunRows: gemmF32AVX2Rows})
		gemmI16Kernels = append(gemmI16Kernels,
			GemmKernelI16{MR: 4, NR: 16, Tier: cpu.TierAVX2, Run: gemmI16AVX2, RunRows: gemmI16AVX2Rows})
	}
	if cpu.Detect().AVX512 {
		gemmF32Kernels = append(gemmF32Kernels,
			GemmKernelF32{MR: 8, NR: 48, Tier: cpu.TierAVX512, Run: gemmF32AVX512, RunRows: gemmF32AVX512Rows})
		gemmI16Kernels = append(gemmI16Kernels,
			GemmKernelI16{MR: 8, NR: 32, Tier: cpu.TierAVX512, Run: gemmI16AVX512, RunRows: gemmI16AVX512Rows})
	}
}
