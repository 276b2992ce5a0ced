//go:build amd64 && !purego && !noasm

package tensor

import "vedliot/internal/tensor/cpu"

// The accelerated element-wise kernels handle a 16-aligned prefix and
// return how many elements they covered; the scalar tails in
// elementwise.go finish the rest. Dispatch honors the VEDLIOT_CPU tier
// clamp like the GEMM and requantize kernels, but resolves it once:
// these kernels run on spans as short as one image row, where a
// per-call sync.Once load is measurable. These loops are load/store
// bound, so 256-bit vectors already saturate the memory ports; a ZMM
// variant would not move them.

// ewAVX2 is pinned at package init: Best() is itself immutable after
// its first call (VEDLIOT_CPU is read once), so a plain bool is safe
// and avoids the per-call atomic.
var ewAVX2 = cpu.Best() >= cpu.TierAVX2

func axpyF32Accel(dst, x []float32, a float32) int {
	n := len(dst) &^ 15
	if n == 0 || !ewAVX2 {
		return 0
	}
	axpyF32AVX2(&dst[0], &x[0], n, a)
	return n
}

// stride2Prefix returns how many outputs the stride-2 gather may
// produce: a multiple of 8, with every 8-output group backed by a full
// 16-element read of x (the vector load reads one element past the
// last 2*i index it uses).
func stride2Prefix(nd, nx int) int {
	n := nd &^ 7
	if m := (nx / 16) * 8; m < n {
		n = m
	}
	return n
}

func gatherStride2F32Accel(dst, x []float32) int {
	n := stride2Prefix(len(dst), len(x))
	if n == 0 || !ewAVX2 {
		return 0
	}
	gatherStride2F32AVX2(&dst[0], &x[0], n)
	return n
}

func scaleShiftF32Accel(span []float32, s, sh float32) int {
	n := len(span) &^ 15
	if n == 0 || !ewAVX2 {
		return 0
	}
	scaleShiftF32AVX2(&span[0], n, s, sh)
	return n
}

func scaleShiftReluF32Accel(span []float32, s, sh float32) int {
	n := len(span) &^ 15
	if n == 0 || !ewAVX2 {
		return 0
	}
	scaleShiftReluF32AVX2(&span[0], n, s, sh)
	return n
}

func reluF32Accel(span []float32) int {
	n := len(span) &^ 15
	if n == 0 || !ewAVX2 {
		return 0
	}
	reluF32AVX2(&span[0], n)
	return n
}

func hswishF32Accel(span []float32) int {
	n := len(span) &^ 15
	if n == 0 || !ewAVX2 {
		return 0
	}
	hswishF32AVX2(&span[0], n)
	return n
}

func hsigmoidF32Accel(span []float32) int {
	n := len(span) &^ 15
	if n == 0 || !ewAVX2 {
		return 0
	}
	hsigmoidF32AVX2(&span[0], n)
	return n
}

// axpyF32AVX2 computes dst[i] += a*x[i] for i < n; n must be a
// multiple of 16. Separate VMULPS/VADDPS keep scalar rounding.
//
//go:noescape
func axpyF32AVX2(dst, x *float32, n int, a float32)

// gatherStride2F32AVX2 copies dst[i] = x[2*i] for i < n; n must be a
// multiple of 8 and x must hold 2*n elements.
//
//go:noescape
func gatherStride2F32AVX2(dst, x *float32, n int)

// scaleShiftF32AVX2 computes p[i] = p[i]*s + sh for i < n; n must be a
// multiple of 16.
//
//go:noescape
func scaleShiftF32AVX2(p *float32, n int, s, sh float32)

// scaleShiftReluF32AVX2 computes p[i] = max(p[i]*s+sh, 0) for i < n
// with NaN/-0 passing through; n must be a multiple of 16.
//
//go:noescape
func scaleShiftReluF32AVX2(p *float32, n int, s, sh float32)

// reluF32AVX2 clamps negative p[i] to 0 for i < n; n must be a
// multiple of 16.
//
//go:noescape
func reluF32AVX2(p *float32, n int)

// hswishF32AVX2 computes p[i] = p[i] * relu6(p[i]+3) / 6 for i < n with
// the scalar formula's roundings and NaN/-0 behaviour; n must be a
// multiple of 16.
//
//go:noescape
func hswishF32AVX2(p *float32, n int)

// hsigmoidF32AVX2 computes p[i] = relu6(p[i]+3) / 6 for i < n; n must
// be a multiple of 16.
//
//go:noescape
func hsigmoidF32AVX2(p *float32, n int)
