//go:build amd64 && !purego && !noasm

package tensor

// SSE2 integer kernels for the native INT8 execution path. SSE2 is part
// of the amd64 baseline, so no runtime feature detection is needed; the
// pure-Go fallback in simd_generic.go serves every other GOARCH (and
// the purego build tag).
//
// PMADDWD multiplies eight int16 pairs and sums adjacent products into
// four int32 lanes — eight multiply-accumulates per instruction, which
// is what makes the quantized engine faster than scalar FP32 on hosts
// without native INT8 matrix units.

// FastInt8 reports whether SIMD integer kernels back AxpyInt16 and the
// int16 GEMM. Perf assertions about the quantized engine beating the
// FP32 engine only hold where this is true; the portable fallbacks are
// correct but not faster than scalar float code.
const FastInt8 = true

// AxpyInt16 computes dst[i] += int32(w) * int32(x[i]) over
// min(len(dst), len(x)) elements — one tap of the plane-form direct
// convolution.
//
//go:noescape
func AxpyInt16(dst []int32, x []int16, w int16)

// WidenShiftInt8 computes dst[i] = int16(src[i]) - zp over
// min(len(dst), len(src)) elements — the zero-point shift that turns
// stored int8 activation codes into the int16 operand form of the
// integer kernels.
func WidenShiftInt8(dst []int16, src []int8, zp int16) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	widenShiftInt8(dst[:n], src[:n], zp)
}

// widenShiftInt8 is the SSE2 body of WidenShiftInt8; equal lengths.
//
//go:noescape
func widenShiftInt8(dst []int16, src []int8, zp int16)

// PackPairShiftInt8 interleaves two zero-point-shifted int8 rows into
// the pair layout of the PMADDWD micro-kernels: out[2i] = int16(r0[i]) -
// zp, out[2i+1] = int16(r1[i]) - zp, over n = min(len(r0), len(r1))
// elements. out must hold at least 2n entries.
func PackPairShiftInt8(out []int16, r0, r1 []int8, zp int16) {
	n := len(r0)
	if len(r1) < n {
		n = len(r1)
	}
	packPairShiftInt8(out[:2*n], r0[:n], r1[:n], zp)
}

// packPairShiftInt8 is the SSE2 body of PackPairShiftInt8; it requires
// len(r0) == len(r1) and len(out) == 2*len(r0).
//
//go:noescape
func packPairShiftInt8(out []int16, r0, r1 []int8, zp int16)
