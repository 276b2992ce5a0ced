package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The tests below compare each dispatched FP32 kernel with its
// definition written out as a scalar loop, bit for bit. `make
// test-portable` runs them under every VEDLIOT_CPU clamp and under the
// purego tag, so the portable body and the AVX2 body are held to the
// same bits.

// oneNaN is the NaN every operand set uses: the one Inf-Inf and 0*Inf
// produce. Which of two different NaN operands an add or a multiply
// keeps is the instruction's operand order, which no kernel defines.
var oneNaN = math.Float32frombits(0xffc00000)

// ewValues returns a span of n values mixing ordinary magnitudes with
// the edge cases the parity contract covers: NaN, ±Inf, ±0, denormals
// and the largest finite value.
func ewValues(rng *rand.Rand, n int) []float32 {
	specials := []float32{
		oneNaN, float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1e-42, -1e-42, math.MaxFloat32,
	}
	out := make([]float32, n)
	for i := range out {
		if rng.Intn(8) == 0 {
			out[i] = specials[rng.Intn(len(specials))]
		} else {
			out[i] = rng.Float32()*4 - 2
		}
	}
	return out
}

// bytesToF32 reads fuzzer bytes as n float32 bit patterns, cycling
// through raw, with every NaN folded onto oneNaN.
func bytesToF32(raw []byte, n int) []float32 {
	out := make([]float32, n)
	if len(raw) < 4 {
		return out
	}
	for i := range out {
		p := (4 * i) % (len(raw) - 3)
		v := math.Float32frombits(binary.LittleEndian.Uint32(raw[p:]))
		if v != v {
			v = oneNaN
		}
		out[i] = v
	}
	return out
}

// bitsEqual compares bitwise so NaN payloads and -0 are significant.
func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)",
				name, i, math.Float32bits(got[i]), got[i],
				math.Float32bits(want[i]), want[i])
		}
	}
}

// TestElementwiseParity checks the stride-2 gather against its scalar
// definition across lengths that cover the vector body, the scalar
// tail, and both empty and sub-vector spans.
func TestElementwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 7, 15, 16, 17, 31, 32, 48, 63, 64, 100, 257} {
		x2 := ewValues(rng, 2*n+1)
		dst := ewValues(rng, n)
		want := make([]float32, n)
		for i := range want {
			want[i] = x2[2*i]
		}
		GatherStride2F32(dst, x2)
		bitsEqual(t, "GatherStride2F32", dst, want)
	}
}

func refConvTapsF32(acc, x []float32, offs []int32, w []float32, bias float32, fromAcc bool) {
	for i := range acc {
		s := bias
		if fromAcc {
			s = acc[i]
		}
		for t, off := range offs {
			s += w[t] * x[int(off)+i]
		}
		acc[i] = s
	}
}

// checkConvTapsF32 runs the kernel and the reference on copies of one
// accumulator, both seeds, and compares every element and the three
// guard elements past the end.
func checkConvTapsF32(t *testing.T, n int, seedAcc, x []float32, offs []int32, w []float32, bias float32) {
	t.Helper()
	for _, fromAcc := range []bool{false, true} {
		got := append([]float32(nil), seedAcc...)
		want := append([]float32(nil), seedAcc...)
		ConvTapsF32(got[:n], x, offs, w, bias, fromAcc)
		refConvTapsF32(want[:n], x, offs, w, bias, fromAcc)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d taps=%d fromAcc=%v: acc[%d] = %x (%g), want %x (%g)", n, len(offs), fromAcc, i,
					math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
			}
		}
	}
}

// TestConvTapsF32 covers every length from 0 past two 32-lane chunks
// with every tail, the tap counts of the 1x1, 3x3 and 5x5 kernels (and
// a pair), both seeds, and NaN, ±Inf, ±0, denormal and overflowing
// operands in the window, the weights, the bias and the accumulator.
func TestConvTapsF32(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const maxOff = 70
	for n := 0; n <= 67; n++ {
		for _, taps := range []int{1, 2, 9, 25} {
			for rep := 0; rep < 3; rep++ {
				x := ewValues(rng, n+maxOff)
				w := ewValues(rng, taps)
				offs := make([]int32, taps)
				for k := range offs {
					offs[k] = int32(rng.Intn(maxOff))
				}
				bias := ewValues(rng, 1)[0]
				if rep == 0 { // ordinary values only: the rounding of every tap shows in the result
					for i := range x {
						x[i] = rng.Float32()*4 - 2
					}
					for i := range w {
						w[i] = rng.Float32()*2 - 1
					}
				}
				checkConvTapsF32(t, n, ewValues(rng, n+3), x, offs, w, bias)
			}
		}
	}
	ConvTapsF32(nil, nil, nil, nil, 3, false)
	acc := []float32{5, 6}
	ConvTapsF32(acc, []float32{1, 2}, nil, nil, 9, false) // no taps: the seed alone
	if acc[0] != 9 || acc[1] != 9 {
		t.Fatalf("no taps: acc = %v, want [9 9]", acc)
	}
}

// TestPadRowsF32 covers both copy-in forms on every row length from 0
// past four vectors: rows placed by the table (descending, so placement
// is the table's and not the order's), both column phases of the
// stride-2 split at odd and even widths, special values moved as bits,
// and nothing written outside the placed rows.
func TestPadRowsF32(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const guard = 777
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = guard
		}
		return s
	}
	for _, rows := range []int{0, 1, 2, 5} {
		for cols := 0; cols <= 67; cols++ {
			src := ewValues(rng, rows*cols)
			stride := cols + 1 + rng.Intn(5)
			rowOff := make([]int32, rows)
			for r := range rowOff {
				rowOff[r] = int32((rows-1-r)*stride + 2)
			}
			got := fill(rows*stride + 4)
			want := fill(len(got))
			PadRowsF32(got, rowOff, src, cols)
			for r, off := range rowOff {
				copy(want[int(off):], src[r*cols:(r+1)*cols])
			}
			bitsEqual(t, "PadRowsF32", got, want)

			ne, no := (cols+1)/2, cols/2
			stride = ne + 3
			offE, offO := 1, rows*stride+5
			for r := range rowOff {
				rowOff[r] = int32(r * stride)
			}
			got = fill(2*rows*stride + 10)
			want = fill(len(got))
			PadSplit2RowsF32(got, rowOff, offE, offO, src, cols)
			for r, off := range rowOff {
				for i := 0; i < ne; i++ {
					want[int(off)+offE+i] = src[r*cols+2*i]
				}
				for i := 0; i < no; i++ {
					want[int(off)+offO+i] = src[r*cols+2*i+1]
				}
			}
			bitsEqual(t, "PadSplit2RowsF32", got, want)
		}
	}
}

// refAct is the scalar formula of each Act, written out here so the
// test does not share the kernel's own loop.
func refAct(v float32, act Act) float32 {
	clamp6 := func(v float32) float32 {
		if v < 0 {
			return 0
		}
		if v > 6 {
			return 6
		}
		return v
	}
	switch act {
	case ActReLU:
		if v < 0 {
			v = 0
		}
	case ActHSwish:
		v = v * clamp6(v+3) / 6
	case ActHSigmoid:
		v = clamp6(v+3) / 6
	}
	return v
}

// checkEpilogueTileF32 runs the kernel out of place and, where the
// strides allow, in place, against the written-out definition; the
// elements between and past the rows must stay untouched.
func checkEpilogueTileF32(t *testing.T, src []float32, ldd, lds, rows, cols int, scale, shift []float32, act Act) {
	t.Helper()
	const guard = 777
	want := make([]float32, rows*ldd+3)
	for i := range want {
		want[i] = guard
	}
	got := append([]float32(nil), want...)
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			v := src[r*lds+i]
			if scale != nil {
				k := 0
				if len(scale) > 1 {
					k = r
				}
				v = v*scale[k] + shift[k]
			}
			want[r*ldd+i] = refAct(v, act)
		}
	}
	EpilogueTileF32(got, ldd, src, lds, rows, cols, scale, shift, act)
	name := "EpilogueTileF32"
	bitsEqual(t, name, got, want)
	if ldd == lds {
		inPlace := append([]float32(nil), src...)
		EpilogueTileF32(inPlace, ldd, inPlace, lds, rows, cols, scale, shift, act)
		for r := 0; r < rows; r++ {
			bitsEqual(t, name+" in place", inPlace[r*lds:][:cols], want[r*ldd:][:cols])
			copy(inPlace[r*lds:][:cols], src[r*lds:]) // the rest must equal src still
		}
		bitsEqual(t, name+" in place, outside the tile", inPlace, src)
	}
}

// TestEpilogueTileF32 covers every row length from 0 past eight
// vectors, one row and several, each activation with no affine, one
// affine for all rows and one per row, equal and unequal strides, and
// operands spanning both clamps of the hard activations plus NaN, ±Inf,
// ±0 and denormals.
func TestEpilogueTileF32(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, rows := range []int{1, 3} {
		for cols := 0; cols <= 67; cols++ {
			for _, act := range []Act{ActNone, ActReLU, ActHSwish, ActHSigmoid} {
				for mode := 0; mode < 3; mode++ {
					lds := cols + rng.Intn(4)
					ldd := lds
					if rng.Intn(2) == 0 {
						ldd = cols + rng.Intn(4)
					}
					src := ewValues(rng, rows*lds+3)
					for i := range src {
						src[i] *= 4 // [-8, 8): both clamps engage
					}
					var scale, shift []float32
					if mode > 0 {
						n := 1
						if mode == 2 {
							n = rows
						}
						scale, shift = ewValues(rng, n), ewValues(rng, n)
					}
					checkEpilogueTileF32(t, src, ldd, lds, rows, cols, scale, shift, act)
				}
			}
		}
	}
	EpilogueTileF32(nil, 0, nil, 0, 0, 5, nil, nil, ActReLU)
	EpilogueTileF32(nil, 0, nil, 0, 5, 0, nil, nil, ActReLU)
}

// FuzzConvTapsF32 cross-checks the dispatched multi-tap kernel with its
// scalar definition on arbitrary bit patterns in the window, the
// weights, the bias and the accumulator.
func FuzzConvTapsF32(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, uint8(3), uint8(9), float32(0.5), false)
	f.Add(make([]byte, 300), uint8(25), uint8(67), float32(-3), true)
	f.Add([]byte{0, 0, 128, 127, 0, 0, 128, 255, 0, 0, 192, 255, 1, 0, 0, 128, 0, 0, 0, 128}, uint8(9), uint8(40), float32(0), true) // +Inf, -Inf, NaN, a denormal, -0
	f.Fuzz(func(t *testing.T, raw []byte, taps8, n8 uint8, bias float32, fromAcc bool) {
		taps, n := int(taps8)%26, int(n8)%100
		if len(raw) < taps+4 {
			return
		}
		if bias != bias {
			bias = oneNaN
		}
		const maxOff = 40
		offs := make([]int32, taps)
		for k := range offs {
			offs[k] = int32(raw[k]) % maxOff
		}
		vals := bytesToF32(raw, taps+n+maxOff+n)
		w, x, got := vals[:taps], vals[taps:][:n+maxOff], vals[taps+n+maxOff:]
		want := append([]float32(nil), got...)
		ConvTapsF32(got, x, offs, w, bias, fromAcc)
		refConvTapsF32(want, x, offs, w, bias, fromAcc)
		bitsEqual(t, "ConvTapsF32", got, want)
	})
}

// FuzzEpilogueTileF32 cross-checks the dispatched tile epilogue with
// its scalar definition on arbitrary bit patterns, tile shapes, strides,
// affine forms and activations, out of place and in place.
func FuzzEpilogueTileF32(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint8(3), uint8(9), uint8(1), uint8(2), uint8(1))
	f.Add(make([]byte, 130), uint8(1), uint8(67), uint8(2), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 128, 127, 0, 0, 128, 255, 0, 0, 192, 255, 1, 0, 0, 128, 0, 0, 0, 128, 0, 0, 192, 64}, uint8(4), uint8(5), uint8(3), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, rows8, cols8, act8, mode, pad uint8) {
		rows, cols := 1+int(rows8)%6, int(cols8)%70
		lds := cols + int(pad)%4
		ldd := lds
		if pad&4 != 0 {
			ldd = cols + int(pad>>3)%4
		}
		vals := bytesToF32(raw, rows*lds+3+2*rows)
		src, aff := vals[:rows*lds+3], vals[rows*lds+3:]
		var scale, shift []float32
		switch mode % 3 {
		case 1:
			scale, shift = aff[:1], aff[rows:][:1]
		case 2:
			scale, shift = aff[:rows], aff[rows:]
		}
		checkEpilogueTileF32(t, src, ldd, lds, rows, cols, scale, shift, Act(act8%4))
	})
}
