package tensor

import (
	"math/rand"
	"testing"
)

func TestAxpyInt16(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 8, 9, 16, 33, 100} {
		for _, w := range []int16{-127, -3, 0, 1, 89} {
			x := make([]int16, n)
			dst := make([]int32, n)
			want := make([]int32, n)
			for i := range x {
				x[i] = int16(rng.Intn(511) - 255)
				dst[i] = int32(rng.Intn(1000) - 500)
				want[i] = dst[i] + int32(w)*int32(x[i])
			}
			AxpyInt16(dst, x, w)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d w=%d: dst[%d] = %d, want %d", n, w, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestAxpyInt16Lengths pins the truncation contract: unequal operand
// lengths accumulate over the shorter one, and empty operands are
// no-ops.
func TestAxpyInt16Lengths(t *testing.T) {
	dst := []int32{10, 20, 30, 40}
	AxpyInt16(dst, []int16{2, 3}, 5)
	for i, want := range []int32{20, 35, 30, 40} {
		if dst[i] != want {
			t.Errorf("short x: dst[%d] = %d, want %d", i, dst[i], want)
		}
	}
	dst = []int32{7}
	AxpyInt16(dst, []int16{1, 2, 3}, 4)
	if dst[0] != 11 {
		t.Errorf("short dst: dst[0] = %d, want 11", dst[0])
	}
	AxpyInt16(nil, []int16{1}, 3)
	AxpyInt16([]int32{1}, nil, 3)
}

func TestWidenShiftInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100} {
		for _, zp := range []int16{0, -128, 127, 11} {
			src := make([]int8, n)
			for i := range src {
				src[i] = int8(rng.Intn(256) - 128)
			}
			dst := make([]int16, n)
			WidenShiftInt8(dst, src, zp)
			for i := range dst {
				if want := int16(src[i]) - zp; dst[i] != want {
					t.Fatalf("n=%d zp=%d: dst[%d] = %d, want %d", n, zp, i, dst[i], want)
				}
			}
			// Length clamp: dst shorter than src and vice versa.
			if n > 2 {
				short := make([]int16, n-2)
				WidenShiftInt8(short, src, zp)
				for i := range short {
					if want := int16(src[i]) - zp; short[i] != want {
						t.Fatalf("short dst n=%d zp=%d: dst[%d] = %d, want %d", n, zp, i, short[i], want)
					}
				}
				long := make([]int16, n+3)
				WidenShiftInt8(long, src, zp)
				for i := n; i < len(long); i++ {
					if long[i] != 0 {
						t.Fatalf("long dst n=%d: dst[%d] = %d, want untouched 0", n, i, long[i])
					}
				}
			}
		}
	}
	WidenShiftInt8(nil, nil, 3)
}

func TestPackPairShiftInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 100} {
		for _, zp := range []int16{0, -128, 127, -9} {
			r0 := make([]int8, n)
			r1 := make([]int8, n)
			for i := range r0 {
				r0[i] = int8(rng.Intn(256) - 128)
				r1[i] = int8(rng.Intn(256) - 128)
			}
			out := make([]int16, 2*n+4)
			PackPairShiftInt8(out, r0, r1, zp)
			for i := 0; i < n; i++ {
				if want := int16(r0[i]) - zp; out[2*i] != want {
					t.Fatalf("n=%d zp=%d: out[%d] = %d, want %d", n, zp, 2*i, out[2*i], want)
				}
				if want := int16(r1[i]) - zp; out[2*i+1] != want {
					t.Fatalf("n=%d zp=%d: out[%d] = %d, want %d", n, zp, 2*i+1, out[2*i+1], want)
				}
			}
			for i := 2 * n; i < len(out); i++ {
				if out[i] != 0 {
					t.Fatalf("n=%d: out[%d] = %d, want untouched 0", n, i, out[i])
				}
			}
			// Unequal row lengths clamp to the shorter row.
			if n > 1 {
				out2 := make([]int16, 2*n)
				PackPairShiftInt8(out2, r0, r1[:n-1], zp)
				for i := 0; i < n-1; i++ {
					if want := int16(r0[i]) - zp; out2[2*i] != want {
						t.Fatalf("clamped n=%d: out[%d] = %d, want %d", n, 2*i, out2[2*i], want)
					}
					if want := int16(r1[i]) - zp; out2[2*i+1] != want {
						t.Fatalf("clamped n=%d: out[%d] = %d, want %d", n, 2*i+1, out2[2*i+1], want)
					}
				}
			}
		}
	}
	PackPairShiftInt8(nil, nil, nil, 3)
}

func BenchmarkAxpyInt16(b *testing.B) {
	x := make([]int16, 1024)
	dst := make([]int32, 1024)
	for i := range x {
		x[i] = int16(i%509 - 254)
	}
	b.SetBytes(2048)
	for i := 0; i < b.N; i++ {
		AxpyInt16(dst, x, 77)
	}
}
