package tensor

import "math"

// Bulk INT8 helpers for the native quantized execution path
// (inference.QuantEngine): slice-level quantize/dequantize used at graph
// entry/exit, and the fixed-point requantization multiplier applied
// between integer layers.

// QuantizeSlice quantizes src into dst element-wise under q; the slices
// must have equal length. Per element
//
//	code = saturate(math.Round(float64(v) * (1/float64(q.Scale))) + q.Zero)
//
// in float64, rounding half away from zero and saturating to [-128,
// 127]. NaN quantizes to the zero-point code (saturated), +Inf to 127 and
// -Inf to -128; a zero Scale maps everything to the zero-point code.
//
// This is the engine's entry quantizer and it multiplies by the
// reciprocal. It is therefore not QuantParams.Quantize applied per
// element: that one divides by the scale, and the two disagree by one
// code on values that sit on a half-code boundary (208 of 128 000 such
// values measured). Each side of the system uses one form throughout —
// QuantEngine's graph entry, its FP32 islands and the RISC-V backend's
// entry use this slice form; the lookup-table builders, weight
// quantization and post-training quantization use the scalar Quantize —
// so changing either one changes codes, and bit-identity with the
// firmware rests on both staying as they are. The vector bodies behind
// quantizeSliceAccel reproduce this arithmetic exactly.
func QuantizeSlice(dst []int8, src []float32, q QuantParams) {
	if q.Scale == 0 {
		z := int8(q.Zero)
		for i := range dst {
			dst[i] = z
		}
		return
	}
	dst = dst[:len(src)]
	inv := 1 / float64(q.Scale)
	zero := float64(q.Zero)
	n := 0
	if q.Zero >= -quantizeZeroBound && q.Zero <= quantizeZeroBound {
		n = quantizeSliceAccel(dst, src, inv, zero)
	}
	nan := ClampInt8(q.Zero)
	for i := n; i < len(src); i++ {
		r := math.Round(float64(src[i])*inv) + zero
		switch {
		case r != r:
			dst[i] = nan
		case r > 127:
			dst[i] = 127
		case r < -128:
			dst[i] = -128
		default:
			dst[i] = int8(r)
		}
	}
}

// quantizeZeroBound is the zero-point magnitude up to which the vector
// quantizers may clamp the scaled value to +-2^20 before rounding
// without changing a result; every calibrated zero point is an int8
// code, and anything past the bound takes the scalar loop.
const quantizeZeroBound = 1 << 10

// DequantizeSlice dequantizes src into dst element-wise under q. The
// slices must have equal length.
func DequantizeSlice(dst []float32, src []int8, q QuantParams) {
	s := q.Scale
	z := q.Zero
	for i, c := range src {
		dst[i] = s * float32(int32(c)-z)
	}
}

// Requant is a positive real multiplier in fixed-point form, the
// requantization step between integer layers: Apply(acc) computes
// round(acc * m) using only integer arithmetic, so quantized kernels
// stay float-free and bit-deterministic on the hot path. The classic
// int32-accumulator scheme: m = sIn*sW/sOut is decomposed as
// mult * 2^-shift with mult a 31-bit mantissa.
type Requant struct {
	mult  int64
	shift uint
	round int64
}

// NewRequant builds the fixed-point form of the positive multiplier m.
// Non-positive or non-finite multipliers collapse to the zero requant
// (Apply always returns 0), the safe behavior for dead channels whose
// scale vanished.
func NewRequant(m float64) Requant {
	if m <= 0 || math.IsInf(m, 1) || math.IsNaN(m) {
		return Requant{}
	}
	frac, exp := math.Frexp(m) // m = frac * 2^exp, frac in [0.5, 1)
	mult := int64(math.Round(frac * (1 << 31)))
	if mult == 1<<31 { // rounding carried into the next power of two
		mult >>= 1
		exp++
	}
	shift := 31 - exp
	// Multipliers >= 2^31 would need a negative shift; fold the excess
	// into the mantissa. Layer-scale ratios are O(1), so this is a
	// robustness path, not a hot one.
	for shift < 0 && mult < 1<<62 {
		mult <<= 1
		shift++
	}
	if shift < 0 {
		shift = 0
	}
	r := Requant{mult: mult, shift: uint(shift)}
	if r.shift > 0 {
		r.round = 1 << (r.shift - 1)
	}
	return r
}

// Apply computes round(acc * m) with round-half-up semantics.
func (r Requant) Apply(acc int32) int32 {
	return int32((int64(acc)*r.mult + r.round) >> r.shift)
}

// Fixed exposes the fixed-point decomposition (mult, shift, round) with
// Apply(acc) = (acc*mult + round) >> shift. Alternative execution
// backends (e.g. the RISC-V firmware lowering) use it to reproduce the
// requantization step bit-exactly outside this package.
func (r Requant) Fixed() (mult int64, shift uint, round int64) {
	return r.mult, r.shift, r.round
}

// ClampInt8 saturates v to the INT8 code range.
func ClampInt8(v int32) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}
