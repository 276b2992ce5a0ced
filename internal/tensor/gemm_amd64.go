//go:build amd64 && !purego

package tensor

// amd64 micro-kernel registration. SSE2 is baseline so its kernels are
// always available; the AVX2 and AVX-512 kernels register only when
// the detector confirms both the ISA subsets and OS vector state, and
// the u8×s8 body where the host also reports VNNI. Each body computes
// the first rows rows of its tile (GemmKernelF32.Run, GemmKernelI16.Run);
// the u8×s8 body runs any row count as 8-row panels (GemmKernelU8.Run).

import "vedliot/internal/tensor/cpu"

// gemmF32SSE2 computes up to a 6x8 FP32 tile with MULPS+ADDPS (no FMA).
//
//go:noescape
func gemmF32SSE2(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

// gemmF32AVX2 computes up to a 6x16 FP32 tile with VMULPS+VADDPS (no FMA).
//
//go:noescape
func gemmF32AVX2(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

// gemmF32AVX512 computes up to an 8x48 FP32 tile on ZMM registers with
// VMULPS+VADDPS (no FMA).
//
//go:noescape
func gemmF32AVX512(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)

// gemmI16SSE2 computes up to a 4x8 quantized tile with PMADDWD.
//
//go:noescape
func gemmI16SSE2(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

// gemmI16AVX2 computes up to a 4x16 quantized tile with VPMADDWD.
//
//go:noescape
func gemmI16AVX2(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

// gemmI16AVX512 computes up to an 8x32 quantized tile on ZMM registers
// with VPMADDWD (requires AVX512BW).
//
//go:noescape
func gemmI16AVX512(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)

// gemmU8VNNI computes rows x 32 u8×s8 outputs as 8x32 panels on ZMM
// registers with VPDPBUSD (requires AVX512VNNI).
//
//go:noescape
func gemmU8VNNI(a []int8, lda, rows int, b []uint8, ldb, kQuads int, bias []int32, c []int32, ldc int)

func init() {
	gemmF32Kernels = append(gemmF32Kernels, GemmKernelF32{MR: 6, NR: 8, Tier: cpu.TierSSE2, Run: gemmF32SSE2})
	gemmI16Kernels = append(gemmI16Kernels, GemmKernelI16{MR: 4, NR: 8, Tier: cpu.TierSSE2, Run: gemmI16SSE2})
	if cpu.Detect().AVX2 {
		gemmF32Kernels = append(gemmF32Kernels, GemmKernelF32{MR: 6, NR: 16, Tier: cpu.TierAVX2, Run: gemmF32AVX2})
		gemmI16Kernels = append(gemmI16Kernels, GemmKernelI16{MR: 4, NR: 16, Tier: cpu.TierAVX2, Run: gemmI16AVX2})
	}
	if cpu.Detect().AVX512 {
		gemmF32Kernels = append(gemmF32Kernels, GemmKernelF32{MR: 8, NR: 48, Tier: cpu.TierAVX512, Run: gemmF32AVX512})
		gemmI16Kernels = append(gemmI16Kernels, GemmKernelI16{MR: 8, NR: 32, Tier: cpu.TierAVX512, Run: gemmI16AVX512})
	}
	if cpu.Detect().AVX512VNNI {
		gemmU8 = GemmKernelU8{MR: 8, NR: 32, Run: gemmU8VNNI}
	}
}
