//go:build !amd64 || purego || noasm

package tensor

// Portable fallbacks for the SSE2 kernels in simd_amd64.s. Four
// independent accumulators break the add dependency chain, which is as
// fast as scalar Go gets on current compilers.

// FastInt8 reports whether SIMD integer kernels back AxpyInt16 and the
// int16 GEMM; the portable fallbacks are correct but not faster than
// scalar float code.
const FastInt8 = false

// AxpyInt16 computes dst[i] += int32(w) * int32(x[i]) over
// min(len(dst), len(x)) elements.
func AxpyInt16(dst []int32, x []int16, w int16) {
	if len(x) < len(dst) {
		dst = dst[:len(x)]
	} else {
		x = x[:len(dst)]
	}
	wv := int32(w)
	for i, xi := range x {
		dst[i] += wv * int32(xi)
	}
}

// WidenShiftInt8 computes dst[i] = int16(src[i]) - zp over
// min(len(dst), len(src)) elements — the zero-point shift that turns
// stored int8 activation codes into the int16 operand form of the
// integer kernels.
func WidenShiftInt8(dst []int16, src []int8, zp int16) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = int16(src[i]) - zp
	}
}

// PackPairShiftInt8 interleaves two zero-point-shifted int8 rows into
// the pair layout of the PMADDWD micro-kernels: out[2i] = int16(r0[i]) -
// zp, out[2i+1] = int16(r1[i]) - zp, over n = min(len(r0), len(r1))
// elements. out must hold at least 2n entries.
func PackPairShiftInt8(out []int16, r0, r1 []int8, zp int16) {
	n := len(r0)
	if len(r1) < n {
		n = len(r1)
	}
	for i := 0; i < n; i++ {
		out[2*i] = int16(r0[i]) - zp
		out[2*i+1] = int16(r1[i]) - zp
	}
}
