package tensor

import "math"

// FloatToFP16 converts an FP32 value to IEEE 754 binary16 with
// round-to-nearest-even, handling subnormals, infinities and NaN.
func FloatToFP16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23)&0xff - 127
	mant := bits & 0x7fffff

	switch {
	case exp == 128: // Inf or NaN
		if mant != 0 {
			// Quiet NaN, payload truncated to the top 10 bits with the
			// quiet bit forced — what the x86 VCVTPS2PH instruction
			// produces.
			return sign | 0x7c00 | 0x200 | uint16(mant>>13)
		}
		return sign | 0x7c00
	case exp > 15: // overflow -> Inf
		return sign | 0x7c00
	case exp >= -14: // normal range
		// Round mantissa from 23 to 10 bits, nearest-even.
		m := mant | 0x800000
		shift := uint32(13)
		rounded := roundShift(m, shift)
		e := uint16(exp + 15)
		// Rounding may carry into the exponent.
		if rounded >= 0x800 {
			rounded >>= 1
			e++
			if e >= 31 {
				return sign | 0x7c00
			}
		}
		return sign | e<<10 | uint16(rounded&0x3ff)
	case exp >= -25: // subnormal (may round up into the normal range)
		// FP32 value is m * 2^(exp-23); FP16 subnormal code is
		// value / 2^-24 = m >> (-exp-1). A rounding carry past bit 10
		// lands on the smallest normal, whose encoding follows naturally.
		m := mant | 0x800000
		return sign | roundShift(m, uint32(-exp-1))
	default: // underflow -> signed zero
		return sign
	}
}

// roundShift shifts m right by shift bits with round-to-nearest-even.
func roundShift(m, shift uint32) uint16 {
	if shift == 0 {
		return uint16(m)
	}
	half := uint32(1) << (shift - 1)
	q := m >> shift
	rem := m & ((1 << shift) - 1)
	if rem > half || (rem == half && q&1 == 1) {
		q++
	}
	return uint16(q)
}

// FP16ToFloat converts an IEEE 754 binary16 value to FP32 exactly.
func FP16ToFloat(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)

	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 31:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		// Quiet NaN with the halfword payload widened in place (quiet
		// bit forced), as the x86 VCVTPH2PS instruction does.
		return math.Float32frombits(sign | 0x7fc00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}
