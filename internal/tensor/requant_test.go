package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// requantInt8 requantizes one int32 accumulator row into int8 codes:
// out[i] = ClampInt8(zp + r.Apply(acc[i])), a one-row RequantTileInt8.
func requantInt8(out []int8, acc []int32, r Requant, zp int32) {
	req := [1]Requant{r}
	RequantTileInt8(out, len(acc), acc, len(acc), 1, len(acc), NewRequantRows(req[:]), zp, nil)
}

// refRequantInt8 is the scalar definition the accelerated path must
// reproduce bit-for-bit.
func refRequantInt8(out []int8, acc []int32, r Requant, zp int32) {
	for i, v := range acc {
		out[i] = ClampInt8(zp + r.Apply(v))
	}
}

// TestRequantInt8MatchesScalar drives requantInt8 across multiplier
// magnitudes, zero points, extreme accumulators and every tail length,
// demanding exact equality with the scalar definition regardless of
// which variant the build dispatches to.
func TestRequantInt8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mults := []float64{1, 0.5, 0.25, 1.7e-3, 3.33e-2, 0.9999, 2.5, 1024,
		7.8e-9, 4.2e9, math.SmallestNonzeroFloat64, 0, math.Inf(1)}
	zps := []int32{0, -128, 127, 5, -7}
	for _, m := range mults {
		r := NewRequant(m)
		for _, zp := range zps {
			for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 64, 100} {
				acc := make([]int32, n)
				for i := range acc {
					switch i % 5 {
					case 0:
						acc[i] = rng.Int31() - 1<<30
					case 1:
						acc[i] = math.MaxInt32
					case 2:
						acc[i] = math.MinInt32
					default:
						acc[i] = int32(rng.Intn(65536) - 32768)
					}
				}
				got := make([]int8, n)
				want := make([]int8, n)
				requantInt8(got, acc, r, zp)
				refRequantInt8(want, acc, r, zp)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("m=%g zp=%d n=%d: out[%d] = %d, scalar %d (acc %d)",
							m, zp, n, i, got[i], want[i], acc[i])
					}
				}
			}
		}
	}
}

// FuzzRequantInt8 cross-checks the dispatched requantizer against the
// scalar definition on arbitrary accumulator bytes and multipliers.
func FuzzRequantInt8(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 255, 0, 0, 0}, 0.031, int32(3))
	f.Add(make([]byte, 64), 1.0, int32(-128))
	f.Fuzz(func(t *testing.T, raw []byte, m float64, zp int32) {
		n := len(raw) / 4
		acc := make([]int32, n)
		for i := range acc {
			acc[i] = int32(raw[4*i]) | int32(raw[4*i+1])<<8 |
				int32(raw[4*i+2])<<16 | int32(raw[4*i+3])<<24
		}
		r := NewRequant(m)
		got := make([]int8, n)
		want := make([]int8, n)
		requantInt8(got, acc, r, zp)
		refRequantInt8(want, acc, r, zp)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("m=%g zp=%d: out[%d] = %d, scalar %d (acc %d)",
					m, zp, i, got[i], want[i], acc[i])
			}
		}
	})
}

// refRequantTile is RequantTileInt8's definition: the scalar epilogue
// row by row, then the row's recode table.
func refRequantTile(dst []int8, ldd int, c []int32, ldc, rows, cols int, req []Requant, zp int32, post []*[256]int8) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			code := ClampInt8(zp + req[i].Apply(c[i*ldc+j]))
			if post != nil && post[i] != nil {
				code = post[i][int(code)+128]
			}
			dst[i*ldd+j] = code
		}
	}
}

// TestRequantTileInt8 drives the tile epilogue over every tile shape a
// micro-kernel produces (1..8 rows, 1..49 columns, so columns under one
// vector, ragged ends, whole vectors and the AVX-512 body's
// thirty-two-column steps followed by a sixteen-column one), with
// per-row multipliers that include the ones outside the vector bodies'
// range (mult >= 1<<31, shift > 63, the zero requant), without a recode
// table, with a different table per row, with one shared table and with
// nil rows.
func TestRequantTileInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	mults := []float64{1, 0.5, 1.7e-3, 3.33e-2, 0.9999, 2.5, 1024, 7.8e-9,
		4.2e9, 3e18, math.SmallestNonzeroFloat64, 0}
	tabs := make([]*[256]int8, 8)
	for i := range tabs {
		tabs[i] = new([256]int8)
		for c := range tabs[i] {
			tabs[i][c] = int8(rng.Intn(256) - 128)
		}
	}
	for rows := 1; rows <= 8; rows++ {
		for cols := 1; cols <= 49; cols++ {
			for _, ordinary := range []bool{true, false} {
				ldc, ldd := cols+rng.Intn(4), cols+rng.Intn(70)
				req := make([]Requant, rows)
				for i := range req {
					if ordinary {
						req[i] = NewRequant(mults[rng.Intn(8)])
					} else {
						req[i] = NewRequant(mults[rng.Intn(len(mults))])
					}
				}
				c := make([]int32, rows*ldc)
				for i := range c {
					switch rng.Intn(6) {
					case 0:
						c[i] = math.MaxInt32
					case 1:
						c[i] = math.MinInt32
					case 2:
						c[i] = rng.Int31() - 1<<30
					default:
						c[i] = int32(rng.Intn(65536) - 32768)
					}
				}
				zp := int32(rng.Intn(256) - 128)
				shared := []*[256]int8{tabs[0], tabs[0], tabs[0], tabs[0], tabs[0], tabs[0], tabs[0], tabs[0]}
				holes := append([]*[256]int8(nil), tabs...)
				holes[rng.Intn(8)] = nil
				for pi, post := range [][]*[256]int8{nil, tabs, shared, holes} {
					got := make([]int8, rows*ldd)
					for i := range got {
						got[i] = 99
					}
					want := append([]int8(nil), got...)
					RequantTileInt8(got, ldd, c, ldc, rows, cols, NewRequantRows(req), zp, post)
					refRequantTile(want, ldd, c, ldc, rows, cols, req, zp, post)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("rows=%d cols=%d ordinary=%v post=%d: dst[%d] = %d, want %d", rows, cols, ordinary, pi, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	RequantTileInt8(nil, 0, nil, 0, 0, 0, RequantRows{}, 0, nil)
}

// FuzzRequantTileInt8 cross-checks the dispatched tile epilogue with the
// scalar definition on arbitrary accumulators, per-row multipliers and a
// recode table derived from the input.
func FuzzRequantTileInt8(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 255, 0, 0, 0, 9, 9, 9, 9}, uint8(1), 0.031, 2.5, int32(3), true)
	f.Add(make([]byte, 4*8*33), uint8(8), 1.0, 4.2e9, int32(-128), false)
	f.Add([]byte{0, 0, 0, 128, 255, 255, 255, 127}, uint8(2), 7.8e-9, 3e18, int32(127), true)
	f.Fuzz(func(t *testing.T, raw []byte, rows8 uint8, m0, m1 float64, zp int32, recode bool) {
		rows := int(rows8)%8 + 1
		cols := len(raw) / 4 / rows
		if cols == 0 {
			return
		}
		c := make([]int32, rows*cols)
		for i := range c {
			c[i] = int32(raw[4*i]) | int32(raw[4*i+1])<<8 | int32(raw[4*i+2])<<16 | int32(raw[4*i+3])<<24
		}
		req := make([]Requant, rows)
		var post []*[256]int8
		if recode {
			post = make([]*[256]int8, rows)
		}
		for i := range req {
			req[i] = NewRequant(m0)
			if i%2 == 1 {
				req[i] = NewRequant(m1)
			}
			if recode && i%3 != 2 {
				post[i] = new([256]int8)
				for k := range post[i] {
					post[i][k] = int8(raw[(k+i)%len(raw)]) + int8(k)
				}
			}
		}
		ldd := cols + rows
		got := make([]int8, rows*ldd)
		want := make([]int8, rows*ldd)
		RequantTileInt8(got, ldd, c, cols, rows, cols, NewRequantRows(req), zp, post)
		refRequantTile(want, ldd, c, cols, rows, cols, req, zp, post)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rows=%d cols=%d m=%g,%g zp=%d: dst[%d] = %d, want %d", rows, cols, m0, m1, zp, i, got[i], want[i])
			}
		}
	})
}

// refQuantize is QuantizeSlice's per-element contract.
func refQuantize(v float32, q QuantParams) int8 {
	if q.Scale == 0 {
		return int8(q.Zero)
	}
	r := math.Round(float64(v)*(1/float64(q.Scale))) + float64(q.Zero)
	switch {
	case r != r:
		return ClampInt8(q.Zero)
	case r > 127:
		return 127
	case r < -128:
		return -128
	}
	return int8(r)
}

// TestQuantizeSliceContract pins QuantizeSlice, vector body and scalar
// tail alike, to its stated contract on the values where a body could
// go its own way: NaN, the infinities, signed zeros, denormals, huge
// magnitudes, every half-code boundary and its float32 neighbours, a
// zero scale and a zero point outside the vector bodies' bound.
func TestQuantizeSliceContract(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, q := range []QuantParams{
		{Scale: 0.02, Zero: 3}, {Scale: 1, Zero: 0}, {Scale: 0.0078125, Zero: -128},
		{Scale: 3.7e-3, Zero: 127}, {Scale: 1e-38, Zero: 5}, {Scale: 3e38, Zero: -5},
		{Scale: 1e-45, Zero: 0}, {Scale: 0, Zero: 7}, {Scale: 0.1, Zero: 5000}, {Scale: 0.1, Zero: -1 << 31},
		{Scale: float32(math.NaN()), Zero: 9}, {Scale: -0.5, Zero: 1},
	} {
		src := []float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1e-39,
			math.MaxFloat32, -math.MaxFloat32, 1e30, -1e30, 0.49999997, -0.49999997}
		for k := -140; k <= 140; k++ {
			b := (float32(k) + 0.5) * q.Scale
			src = append(src, b, math.Nextafter32(b, inf), math.Nextafter32(b, -inf), float32(k)*q.Scale)
		}
		for i := 0; i < 200; i++ {
			src = append(src, float32(rng.NormFloat64())*q.Scale*100)
		}
		for _, n := range []int{len(src), 1, 7, 8, 9, 15, 16, 17} {
			s := src[:n]
			got := make([]int8, n)
			QuantizeSlice(got, s, q)
			for i, v := range s {
				if want := refQuantize(v, q); got[i] != want {
					t.Fatalf("q=%+v n=%d: quantize(%g) = %d, want %d", q, n, v, got[i], want)
				}
			}
		}
	}
}

// TestQuantizeToIsQuantize holds the bulk form of the scalar quantizer
// to the scalar itself on the same hard values as
// TestQuantizeSliceContract, plus scales whose half-code boundaries the
// reciprocal form misses (49/65536: dividing reaches the half,
// multiplying by the rounded reciprocal falls short of it), so that
// neither the rounding rule nor the division can change unnoticed.
func TestQuantizeToIsQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	ties, reciprocalDiffers := 0, 0
	for _, q := range []QuantParams{
		{Scale: 0.02, Zero: 3}, {Scale: 1, Zero: 0}, {Scale: 0.0078125, Zero: -128},
		{Scale: 49.0 / 65536, Zero: 2}, {Scale: 3.0 / 256, Zero: 127}, {Scale: 3.7e-3, Zero: 127},
		{Scale: 1e-38, Zero: 5}, {Scale: 3e38, Zero: -5}, {Scale: 1e-45, Zero: 0}, {Scale: 0, Zero: 7},
		{Scale: 0, Zero: 300}, {Scale: 0.1, Zero: 5000}, {Scale: 0.1, Zero: -1 << 31}, {Scale: 0.1, Zero: 1<<31 - 1},
		{Scale: nan, Zero: 9}, {Scale: inf, Zero: 9}, {Scale: -0.5, Zero: 1},
	} {
		src := []float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1e-39,
			math.MaxFloat32, -math.MaxFloat32, 1e30, -1e30, 0.49999997, -0.49999997}
		for k := -140; k <= 140; k++ {
			b := (float32(k) + 0.5) * q.Scale
			src = append(src, b, math.Nextafter32(b, inf), math.Nextafter32(b, -inf), float32(k)*q.Scale)
		}
		for i := 0; i < 200; i++ {
			src = append(src, float32(rng.NormFloat64())*q.Scale*100)
		}
		got := make([]int8, len(src)+1)
		got[len(src)] = 99
		q.QuantizeTo(got, src)
		if got[len(src)] != 99 {
			t.Fatalf("q=%+v: QuantizeTo wrote past len(src)", q)
		}
		for i, v := range src {
			want := q.Quantize(v)
			if got[i] != want {
				t.Fatalf("q=%+v: QuantizeTo(%g) = %d, Quantize says %d", q, v, got[i], want)
			}
			if x := float64(v) / float64(q.Scale); x-math.Trunc(x) == 0.5 || x-math.Trunc(x) == -0.5 {
				ties++
				if refQuantize(v, q) != want {
					reciprocalDiffers++
				}
			}
		}
	}
	if ties == 0 || reciprocalDiffers == 0 {
		t.Fatalf("%d half-code boundaries, %d of them telling the division form from the reciprocal form: the test is blunt", ties, reciprocalDiffers)
	}
}
