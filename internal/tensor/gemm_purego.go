//go:build !amd64 || purego

package tensor

// No SIMD micro-kernels in this build: the generic kernels registered
// in gemm_generic.go are the only variants, so PickGemmF32/PickGemmI16
// resolve to the portable tier regardless of what the host supports.
