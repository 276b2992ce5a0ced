package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// ewValues returns a span of n values mixing ordinary magnitudes with
// the edge cases the parity contract covers: NaN, ±Inf, ±0 and
// denormals.
func ewValues(rng *rand.Rand, n int) []float32 {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
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

// TestElementwiseParity checks the accelerated element-wise kernels
// bitwise against their scalar definitions across lengths that cover
// the vector body, the scalar tail, and both empty and sub-vector
// spans.
func TestElementwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lengths := []int{0, 1, 7, 15, 16, 17, 31, 32, 48, 63, 64, 100, 257}
	for _, n := range lengths {
		x := ewValues(rng, n)
		base := ewValues(rng, n)
		a := rng.Float32()*2 - 1

		dst := append([]float32(nil), base...)
		want := append([]float32(nil), base...)
		for i := range want {
			want[i] += a * x[i]
		}
		AxpyF32(dst, x, a)
		bitsEqual(t, "AxpyF32", dst, want)

		x2 := ewValues(rng, 2*n+1)
		dst = append([]float32(nil), base...)
		for i := range want {
			want[i] = x2[2*i]
		}
		GatherStride2F32(dst, x2)
		bitsEqual(t, "GatherStride2F32", dst, want)

		s, sh := rng.Float32()*2-1, rng.Float32()*2-1
		dst = append([]float32(nil), base...)
		want = append([]float32(nil), base...)
		for i, v := range want {
			want[i] = v*s + sh
		}
		ScaleShiftF32(dst, s, sh)
		bitsEqual(t, "ScaleShiftF32", dst, want)

		dst = append([]float32(nil), base...)
		want = append([]float32(nil), base...)
		for i, v := range want {
			v = v*s + sh
			if v < 0 {
				v = 0
			}
			want[i] = v
		}
		ScaleShiftReluF32(dst, s, sh)
		bitsEqual(t, "ScaleShiftReluF32", dst, want)

		dst = append([]float32(nil), base...)
		want = append([]float32(nil), base...)
		for i, v := range want {
			if v < 0 {
				want[i] = 0
			}
		}
		ReluF32(dst)
		bitsEqual(t, "ReluF32", dst, want)

		// The hard activations against the scalar formula, written out
		// here so the test does not share the kernel's own tail.
		hsig := func(v float32) float32 {
			v += 3
			if v < 0 {
				return 0
			}
			if v > 6 {
				return 6
			}
			return v
		}
		wide := make([]float32, n) // [-8, 8): both clamps engage
		for i, v := range base {
			wide[i] = v * 4
		}
		dst = append([]float32(nil), wide...)
		for i, v := range wide {
			want[i] = v * hsig(v) / 6
		}
		HSwishF32(dst)
		bitsEqual(t, "HSwishF32", dst, want)

		dst = append([]float32(nil), wide...)
		for i, v := range wide {
			want[i] = hsig(v) / 6
		}
		HSigmoidF32(dst)
		bitsEqual(t, "HSigmoidF32", dst, want)
	}
}

// TestAxpyF32LongerX checks that a longer x is clipped to dst's length
// without touching elements past it.
func TestAxpyF32LongerX(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	dst := []float32{10, 20}
	AxpyF32(dst, x, 2)
	if dst[0] != 12 || dst[1] != 24 {
		t.Fatalf("got %v, want [12 24]", dst)
	}
}
