package tensor

// Portable micro-kernels, compiled on every GOARCH. They share the
// AVX2 tile shapes (6x16 FP32, 4x16 INT16).
//
// The FP32 inner statement is written `acc += a*b` — the same shape as
// the scalar interpreter loop — so on architectures where the Go
// compiler fuses multiply-add (arm64), kernel and interpreter fuse
// identically and bitwise parity still holds; on amd64 neither fuses.

import "vedliot/internal/tensor/cpu"

var genericGemmF32 = GemmKernelF32{MR: 6, NR: 16, Tier: cpu.TierGeneric, Run: gemmF32Generic}
var genericGemmI16 = GemmKernelI16{MR: 4, NR: 16, Tier: cpu.TierGeneric, Run: gemmI16Generic}

// gemmF32Generic computes the first rows rows of a 6x16 tile, A read
// row-major.
func gemmF32Generic(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int) {
	var acc [6][16]float32
	for i := 0; i < rows; i++ {
		bi := bias[i]
		for j := 0; j < 16; j++ {
			acc[i][j] = bi
		}
	}
	for kk := 0; kk < k; kk++ {
		bp := b[kk*ldb : kk*ldb+16 : kk*ldb+16]
		for i := 0; i < rows; i++ {
			av := a[i*lda+kk]
			ai := &acc[i]
			for j := 0; j < 16; j++ {
				ai[j] += av * bp[j]
			}
		}
	}
	for i := 0; i < rows; i++ {
		copy(c[i*ldc:i*ldc+16], acc[i][:])
	}
}

// gemmI16Generic is the quantized body: row i's K pairs lie adjacent
// from a[i*lda].
func gemmI16Generic(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int) {
	var acc [4][16]int32
	for i := 0; i < rows; i++ {
		bi := bias[i]
		for j := 0; j < 16; j++ {
			acc[i][j] = bi
		}
	}
	for kp := 0; kp < kPairs; kp++ {
		bp := b[kp*ldb : kp*ldb+32 : kp*ldb+32]
		for i := 0; i < rows; i++ {
			a0 := int32(a[i*lda+kp*2])
			a1 := int32(a[i*lda+kp*2+1])
			ai := &acc[i]
			for j := 0; j < 16; j++ {
				ai[j] += a0*int32(bp[j*2]) + a1*int32(bp[j*2+1])
			}
		}
	}
	for i := 0; i < rows; i++ {
		copy(c[i*ldc:i*ldc+16], acc[i][:])
	}
}
