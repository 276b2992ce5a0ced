package tensor

// Element-wise FP32 helpers for the inference engine's non-GEMM hot
// loops: row-wise accumulation in the direct convolution form and the
// fused per-channel epilogues. Like the GEMM micro-kernels they follow
// the strict-parity contract — one rounding for the multiply and one
// for the add per element, never an FMA — so the accelerated paths are
// bitwise identical to the scalar loops they replace, element by
// element, including NaN propagation and signed zero.

// AxpyF32 accumulates dst[i] += a*x[i] over len(dst) elements; x must
// be at least as long as dst.
func AxpyF32(dst, x []float32, a float32) {
	x = x[:len(dst)]
	n := axpyF32Accel(dst, x, a)
	for i := n; i < len(dst); i++ {
		dst[i] += a * x[i]
	}
}

// GatherStride2F32 copies dst[i] = x[2*i] — the stride-2 im2col row
// gather. x must hold at least 2*len(dst)-1 elements.
func GatherStride2F32(dst, x []float32) {
	n := gatherStride2F32Accel(dst, x)
	for i := n; i < len(dst); i++ {
		dst[i] = x[2*i]
	}
}

// ScaleShiftF32 rewrites every v in span as v*s + sh.
func ScaleShiftF32(span []float32, s, sh float32) {
	n := scaleShiftF32Accel(span, s, sh)
	for i := n; i < len(span); i++ {
		span[i] = span[i]*s + sh
	}
}

// ScaleShiftReluF32 rewrites every v in span as max(v*s+sh, 0), with
// NaN and -0 passing through exactly as the scalar `if v < 0` clamp
// leaves them.
func ScaleShiftReluF32(span []float32, s, sh float32) {
	n := scaleShiftReluF32Accel(span, s, sh)
	for i := n; i < len(span); i++ {
		v := span[i]*s + sh
		if v < 0 {
			v = 0
		}
		span[i] = v
	}
}

// ReluF32 clamps every negative v in span to 0; NaN and -0 are left in
// place.
func ReluF32(span []float32) {
	n := reluF32Accel(span)
	for i := n; i < len(span); i++ {
		if span[i] < 0 {
			span[i] = 0
		}
	}
}

// relu6 clamps v to [0, 6]; NaN and -0 fall through both branches.
func relu6(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 6 {
		return 6
	}
	return v
}

// HSwishF32 rewrites every v in span as v * relu6(v+3) / 6 — add,
// clamp, multiply, then a true divide by 6, each rounded once, so it is
// bitwise the scalar hard-swish on every lane, NaN, ±0 and ±Inf
// included.
func HSwishF32(span []float32) {
	n := hswishF32Accel(span)
	for i := n; i < len(span); i++ {
		v := span[i]
		span[i] = v * relu6(v+3) / 6
	}
}

// HSigmoidF32 rewrites every v in span as relu6(v+3) / 6, bitwise the
// scalar hard-sigmoid on every lane.
func HSigmoidF32(span []float32) {
	n := hsigmoidF32Accel(span)
	for i := n; i < len(span); i++ {
		span[i] = relu6(span[i]+3) / 6
	}
}
