package tensor

import (
	"math/rand"
	"testing"
)

// TestWidenShiftInt8 covers every length up to four 32-lane vectors and
// past (whole vectors, ragged ends and the portable tail of each tier)
// at both ends of the zero-point range.
func TestWidenShiftInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 140; n++ {
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

// TestPackPairShiftInt8 covers even and odd tap counts (an odd one pairs
// its last row with zeros), every row length from empty past two 32-lane
// vectors, a row stride wider than the row and an output stride wider
// than the pairs (the zero-filled columns of a ragged tile).
func TestPackPairShiftInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, taps := range []int{1, 2, 3, 8, 9} {
		for n := 0; n <= 70; n++ {
			for _, zp := range []int16{0, -128, 127, -9} {
				lds := n + rng.Intn(3)
				ldo := 2*n + 2*rng.Intn(40)
				src := randCodes(rng, taps*lds+n)
				kp := KPairs(taps)
				got := make([]int16, kp*ldo+4)
				for i := range got {
					got[i] = 777
				}
				want := append([]int16(nil), got...)
				PackPairShiftInt8(got, ldo, src, lds, taps, n, zp)
				for p := 0; p < kp; p++ {
					clear(want[p*ldo : (p+1)*ldo])
					for i := 0; i < n; i++ {
						want[p*ldo+2*i] = int16(src[2*p*lds+i]) - zp
						if 2*p+1 < taps {
							want[p*ldo+2*i+1] = int16(src[(2*p+1)*lds+i]) - zp
						}
					}
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("taps=%d n=%d lds=%d ldo=%d zp=%d: out[%d] = %d, want %d", taps, n, lds, ldo, zp, i, got[i], want[i])
					}
				}
			}
		}
	}
	PackPairShiftInt8(nil, 0, nil, 0, 0, 0, 3)
}

func TestPackQuadXorInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, taps := range []int{1, 2, 3, 4, 5, 7, 8, 9, 18} {
		for n := 0; n <= 140; n++ {
			lds := n + rng.Intn(3)
			ldo := 4*n + rng.Intn(300)
			src := randCodes(rng, taps*lds+n)
			if n > 0 {
				src[0], src[(taps-1)*lds+n-1] = -128, 127
			}
			kq := KQuads(taps)
			got := make([]uint8, kq*ldo+4)
			for i := range got {
				got[i] = 77
			}
			want := append([]uint8(nil), got...)
			PackQuadXorInt8(got, ldo, src, lds, taps, n)
			for q := 0; q < kq; q++ {
				for i := 0; i < ldo; i++ {
					want[q*ldo+i] = 0x80
				}
				for s := 0; s < 4 && 4*q+s < taps; s++ {
					for i := 0; i < n; i++ {
						want[q*ldo+4*i+s] = uint8(src[(4*q+s)*lds+i]) ^ 0x80
					}
				}
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("taps=%d n=%d lds=%d ldo=%d: out[%d] = %d, want %d", taps, n, lds, ldo, i, got[i], want[i])
				}
			}
		}
	}
	PackQuadXorInt8(nil, 0, nil, 0, 0, 0)
}

// The tests below compare each dispatched integer kernel with its
// definition written out as a scalar loop. `make test-portable` runs
// them under every VEDLIOT_CPU clamp and under the purego tag, so every
// body of every tier is held to the same bits.

func randCodes(rng *rand.Rand, n int) []int8 {
	x := make([]int8, n)
	for i := range x {
		x[i] = int8(rng.Intn(256) - 128)
	}
	return x
}

func TestGatherStride2Int8(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 0; n <= 140; n++ {
		src := randCodes(rng, max(2*n-1, 0))
		got := make([]int8, n+2)
		got[n], got[n+1] = 99, 98
		GatherStride2Int8(got[:n], src)
		for i := 0; i < n; i++ {
			if got[i] != src[2*i] {
				t.Fatalf("n=%d: dst[%d] = %d, want %d", n, i, got[i], src[2*i])
			}
		}
		if got[n] != 99 || got[n+1] != 98 {
			t.Fatalf("n=%d: wrote past dst", n)
		}
	}
}

func TestSumRowsInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, rows := range []int{1, 2, 7} {
		for cols := 0; cols <= 300; cols++ {
			x := randCodes(rng, rows*cols)
			got := make([]int32, rows+1)
			got[rows] = 99
			SumRowsInt8(got[:rows], x, cols)
			for r := 0; r < rows; r++ {
				var want int32
				for _, v := range x[r*cols : (r+1)*cols] {
					want += int32(v)
				}
				if got[r] != want {
					t.Fatalf("rows=%d cols=%d: sums[%d] = %d, want %d", rows, cols, r, got[r], want)
				}
			}
			if got[rows] != 99 {
				t.Fatalf("rows=%d cols=%d: wrote past sums", rows, cols)
			}
		}
	}
	for _, v := range []int8{-128, 127} {
		x := make([]int8, 4096)
		for i := range x {
			x[i] = v
		}
		var got [2]int32
		SumRowsInt8(got[:], x, 2048)
		if want := int32(v) * 2048; got[0] != want || got[1] != want {
			t.Fatalf("all %d: sums = %v, want %d", v, got, want)
		}
	}
}

func TestScaleRowsInt16(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, rows := range []int{0, 1, 3} {
		for cols := 0; cols <= 70; cols++ {
			x := make([]int16, rows*cols)
			for i := range x {
				x[i] = int16(rng.Intn(511) - 255)
			}
			f := make([]int16, rows)
			for r := range f {
				f[r] = []int16{255, -255, 0, 1, -77}[rng.Intn(5)]
			}
			got := make([]int32, rows*cols+1)
			got[rows*cols] = 99
			ScaleRowsInt16(got, x, f, cols)
			for r := range f {
				for i := 0; i < cols; i++ {
					if want := int32(f[r]) * int32(x[r*cols+i]); got[r*cols+i] != want {
						t.Fatalf("rows=%d cols=%d: acc[%d,%d] = %d, want %d", rows, cols, r, i, got[r*cols+i], want)
					}
				}
			}
			if got[rows*cols] != 99 {
				t.Fatalf("rows=%d cols=%d: wrote past acc", rows, cols)
			}
		}
	}
}

// TestLUT8 drives the byte table over every code, lengths 0 to 130 and
// dst aliasing src.
func TestLUT8(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var tab [256]int8
	for i := range tab {
		tab[i] = int8(rng.Intn(256) - 128)
	}
	all := make([]int8, 256)
	for i := range all {
		all[i] = int8(i - 128)
	}
	got := make([]int8, 256)
	LUT8(got, all, &tab)
	for i := range got {
		if got[i] != tab[i] {
			t.Fatalf("code %d: got %d, want %d", i-128, got[i], tab[i])
		}
	}
	for n := 0; n <= 130; n++ {
		src := randCodes(rng, n)
		want := make([]int8, n)
		for i, v := range src {
			want[i] = tab[int(v)+128]
		}
		got := make([]int8, n+1)
		got[n] = 55
		LUT8(got[:n], src, &tab)
		if got[n] != 55 {
			t.Fatalf("n=%d: wrote past dst", n)
		}
		inPlace := append([]int8(nil), src...)
		LUT8(inPlace, inPlace, &tab)
		for i := range want {
			if got[i] != want[i] || inPlace[i] != want[i] {
				t.Fatalf("n=%d: [%d] = %d (in place %d), want %d", n, i, got[i], inPlace[i], want[i])
			}
		}
	}
}

func TestAccumLUT32AndNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var lut [256]int32
	for i := range lut {
		lut[i] = int32(rng.Intn(4001) - 2000)
	}
	lut[0], lut[255] = -1<<31, 1<<31-1 // wrap-around is part of the contract
	for n := 0; n <= 100; n++ {
		src := randCodes(rng, n)
		for _, fromAcc := range []bool{false, true} {
			got := make([]int32, n+1)
			for i := range got {
				got[i] = int32(rng.Intn(1<<16) - 1<<15)
			}
			want := append([]int32(nil), got...)
			AccumLUT32(got[:n], src, &lut, -77, fromAcc)
			for i := 0; i < n; i++ {
				s := int32(-77)
				if fromAcc {
					s = want[i]
				}
				want[i] = s + lut[int(src[i])+128]
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d fromAcc=%v: acc[%d] = %d, want %d", n, fromAcc, i, got[i], want[i])
				}
			}
			codes := make([]int8, n+1)
			codes[n] = 55
			NarrowSatInt8(codes[:n], got[:n])
			for i := 0; i < n; i++ {
				if codes[i] != ClampInt8(got[i]) {
					t.Fatalf("n=%d: narrow[%d] = %d, want %d", n, i, codes[i], ClampInt8(got[i]))
				}
			}
			if codes[n] != 55 {
				t.Fatalf("n=%d: narrow wrote past dst", n)
			}
		}
	}
}

// FuzzLUT8 cross-checks the dispatched byte table with the scalar lookup
// on arbitrary tables and code runs, out of place and in place.
func FuzzLUT8(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint8(3))
	f.Add(make([]byte, 130), uint8(0))
	f.Add([]byte{128, 127, 255, 0}, uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, salt uint8) {
		if len(raw) == 0 {
			return
		}
		var tab [256]int8
		for i := range tab {
			tab[i] = int8(raw[i%len(raw)]) ^ int8(uint8(i)*salt)
		}
		src := make([]int8, len(raw))
		for i, b := range raw {
			src[i] = int8(b)
		}
		got := make([]int8, len(src))
		LUT8(got, src, &tab)
		inPlace := append([]int8(nil), src...)
		LUT8(inPlace, inPlace, &tab)
		for i, v := range src {
			if want := tab[int(v)+128]; got[i] != want || inPlace[i] != want {
				t.Fatalf("n=%d: [%d] = %d (in place %d), want %d", len(src), i, got[i], inPlace[i], want)
			}
		}
	})
}
