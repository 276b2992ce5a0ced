package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vedliot/internal/tensor/cpu"
)

// refGemmF32 is the scalar reference with the exact accumulation
// order the interpreter uses: acc starts at bias, then adds one
// product per K step in order. Kernel parity is bitwise against this.
func refGemmF32(m, n, k int, a []float32, lda int, b []float32, ldb int, bias []float32, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := bias[i]
			for kk := 0; kk < k; kk++ {
				acc += a[i*lda+kk] * b[kk*ldb+j]
			}
			c[i*ldc+j] = acc
		}
	}
}

func refGemmI16(m, n, k int, a []int16, lda int, b []int16, ldb int, bias []int32, c []int32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := bias[i]
			for kk := 0; kk < k; kk++ {
				acc += int32(a[i*lda+kk]) * int32(b[kk*ldb+j])
			}
			c[i*ldc+j] = acc
		}
	}
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*4 - 2
	}
	return out
}

func randI16(rng *rand.Rand, n int, lim int32) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(rng.Int31n(2*lim+1) - lim)
	}
	return out
}

func runVariantF32(t *testing.T, g GemmKernelF32, m, n, k int, rng *rand.Rand) {
	t.Helper()
	a := randF32(rng, m*k)
	b := randF32(rng, k*n)
	bias := randF32(rng, m)
	want := make([]float32, m*n)
	refGemmF32(m, n, k, a, k, b, n, bias, want, n)

	apack := make([]float32, g.PackedASize(m, k))
	g.PackA(apack, a, k, m, k)
	got := make([]float32, m*n)
	g.Compute(m, n, k, apack, g.PackBias(bias, m), b, n, got, n, nil, nil)

	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("tier %v m=%d n=%d k=%d: c[%d] = %x, want %x (bitwise)",
				g.Tier, m, n, k, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func runVariantI16(t *testing.T, g GemmKernelI16, m, n, k int, rng *rand.Rand) {
	t.Helper()
	a := randI16(rng, m*k, 127)
	b := randI16(rng, k*n, 255)
	bias := make([]int32, m)
	for i := range bias {
		bias[i] = rng.Int31n(20001) - 10000
	}
	want := make([]int32, m*n)
	refGemmI16(m, n, k, a, k, b, n, bias, want, n)

	apack := make([]int16, g.PackedASize(m, k))
	g.PackA(apack, a, k, m, k)
	got := make([]int32, m*n)
	g.Compute(m, n, k, apack, g.PackBias(bias, m), b, n, got, n, nil, nil)

	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("tier %v m=%d n=%d k=%d: c[%d] = %d, want %d",
				g.Tier, m, n, k, i, got[i], want[i])
		}
	}
}

// runRowsF32 checks one kernel body at one live-row count: bitwise
// the scalar reference, read from a row-major A (stride lda > k) and a
// strided C, with every element of C outside the live rows left as it
// was.
func runRowsF32(t *testing.T, g GemmKernelF32, rows, k int, rng *rand.Rand) {
	t.Helper()
	mr, nr := g.MR, g.NR
	lda, ldc := k+3, nr+5
	a := randF32(rng, mr*lda)
	b := randF32(rng, k*nr)
	bias := randF32(rng, mr)
	want := make([]float32, mr*nr)
	refGemmF32(rows, nr, k, a, lda, b, nr, bias, want, nr)

	const sentinel = 0x7fc0beef
	got := make([]float32, mr*ldc)
	for i := range got {
		got[i] = math.Float32frombits(sentinel)
	}
	g.Run(a, lda, rows, b, nr, k, bias, got, ldc)
	for i := 0; i < mr; i++ {
		for j := 0; j < ldc; j++ {
			w := uint32(sentinel)
			if i < rows && j < nr {
				w = math.Float32bits(want[i*nr+j])
			}
			if gb := math.Float32bits(got[i*ldc+j]); gb != w {
				t.Fatalf("tier %v rows=%d k=%d: c[%d][%d] = %x, want %x (bitwise)", g.Tier, rows, k, i, j, gb, w)
			}
		}
	}
}

// runRowsI16 is the quantized analogue of runRowsF32 (k in elements,
// odd k zero-padded in the row-major rows as the caller contract asks;
// B is a packed tile of adjacent-K pairs).
func runRowsI16(t *testing.T, g GemmKernelI16, rows, k int, rng *rand.Rand) {
	t.Helper()
	mr, nr := g.MR, g.NR
	kp := KPairs(k)
	lda, ldc := 2*kp+4, nr+5
	a := randI16(rng, mr*lda, 127)
	if k%2 == 1 {
		for i := 0; i < mr; i++ {
			a[i*lda+k] = 0
		}
	}
	b := randI16(rng, k*nr, 255)
	bpack := make([]int16, kp*2*nr)
	g.PackBTile(bpack, b, nr, k, nr, 0)
	bias := make([]int32, mr)
	for i := range bias {
		bias[i] = rng.Int31n(20001) - 10000
	}
	want := make([]int32, mr*nr)
	refGemmI16(rows, nr, k, a, lda, b, nr, bias, want, nr)

	const sentinel = -0x5eadbeef
	got := make([]int32, mr*ldc)
	for i := range got {
		got[i] = sentinel
	}
	g.Run(a, lda, rows, bpack, 2*nr, kp, bias, got, ldc)
	for i := 0; i < mr; i++ {
		for j := 0; j < ldc; j++ {
			w := int32(sentinel)
			if i < rows && j < nr {
				w = want[i*nr+j]
			}
			if got[i*ldc+j] != w {
				t.Fatalf("tier %v rows=%d k=%d: c[%d][%d] = %d, want %d", g.Tier, rows, k, i, j, got[i*ldc+j], w)
			}
		}
	}
}

// TestGemmF32Variants sweeps every compiled-in kernel variant over all
// tile remainder sizes (m in 1..2*MR+1, n covering 1..NR-1 plus full
// tiles, k including 0, 1, odd and even) and demands bitwise equality
// with the scalar reference; then the kernel body alone at every
// live-row count 1..MR.
func TestGemmF32Variants(t *testing.T) {
	for _, g := range GemmF32Variants() {
		g := g
		t.Run(fmt.Sprintf("tier=%v", g.Tier), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for m := 1; m <= 2*g.MR+1; m++ {
				for _, n := range remainders(g.NR) {
					for _, k := range []int{0, 1, 3, 9, 16, 37} {
						runVariantF32(t, g, m, n, k, rng)
					}
				}
			}
			for rows := 1; rows <= g.MR; rows++ {
				for _, k := range []int{0, 1, 3, 9, 16, 37} {
					runRowsF32(t, g, rows, k, rng)
				}
			}
		})
	}
}

// TestGemmI16Variants is the quantized analogue: exact int32
// accumulator equality across every variant and remainder size, and
// the kernel body alone at every live-row count.
func TestGemmI16Variants(t *testing.T) {
	for _, g := range gemmI16Kernels {
		g := g
		t.Run(fmt.Sprintf("tier=%v", g.Tier), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for m := 1; m <= 2*g.MR+1; m++ {
				for _, n := range remainders(g.NR) {
					for _, k := range []int{1, 2, 3, 9, 16, 37} {
						runVariantI16(t, g, m, n, k, rng)
					}
				}
			}
			for rows := 1; rows <= g.MR; rows++ {
				for _, k := range []int{1, 2, 3, 9, 16, 37} {
					runRowsI16(t, g, rows, k, rng)
				}
			}
		})
	}
}

// remainders returns every n in 1..nr-1 plus full-tile and
// full-tile-plus-remainder widths.
func remainders(nr int) []int {
	out := make([]int, 0, nr+3)
	for n := 1; n < nr; n++ {
		out = append(out, n)
	}
	return append(out, nr, 2*nr, 2*nr+3)
}

// TestGemmF32StridedB exercises the direct strided-B path (ldb larger
// than the tile, as pointwise convolutions use) on the selected kernel:
// full panels and a short last one over full N tiles, stored straight
// into C.
func TestGemmF32StridedB(t *testing.T) {
	g := PickGemmF32()
	rng := rand.New(rand.NewSource(3))
	k, n := 24, 3*g.NR // full tiles only: direct stores at ldb = n
	m := 2*g.MR - 1
	a := randF32(rng, m*k)
	b := randF32(rng, k*n)
	bias := randF32(rng, m)
	want := make([]float32, m*n)
	refGemmF32(m, n, k, a, k, b, n, bias, want, n)

	pbias := g.PackBias(bias, m)
	got := make([]float32, m*n)
	for i0 := 0; i0 < m; i0 += g.MR {
		for j0 := 0; j0 < n; j0 += g.NR {
			g.Run(a[i0*k:], k, min(m-i0, g.MR), b[j0:], n, k, pbias[i0:], got[i0*n+j0:], n)
		}
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("strided B: c[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPickGemmRespectsTier checks the selected kernels never exceed
// the detector's chosen tier.
func TestPickGemmRespectsTier(t *testing.T) {
	if g := PickGemmF32(); g.Tier > cpu.Best() {
		t.Errorf("PickGemmF32 tier %v exceeds cpu.Best %v", g.Tier, cpu.Best())
	}
	if g := PickGemmI16(); g.Tier > cpu.Best() {
		t.Errorf("PickGemmI16 tier %v exceeds cpu.Best %v", g.Tier, cpu.Best())
	}
}

// BenchmarkGemmTiers sweeps every compiled-in FP32 kernel variant over
// conv-shaped problems (M = output channels, N = output pixels, K =
// taps) and reports GF/s per tier — the harness behind `make
// bench-kernels` for quick cross-tier regression triage.
func BenchmarkGemmTiers(b *testing.B) {
	shapes := []struct {
		name    string
		m, n, k int
	}{
		{"conv3x3_32ch_32px", 64, 32 * 32, 32 * 9},
		{"conv3x3_128ch_16px", 128, 16 * 16, 128 * 9},
		{"pointwise_128ch_32px", 128, 32 * 32, 128},
		{"dense_512x1152", 512, 8, 1152},
	}
	for _, g := range GemmF32Variants() {
		g := g
		for _, s := range shapes {
			s := s
			b.Run(fmt.Sprintf("tier=%v/%s", g.Tier, s.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(17))
				a := randF32(rng, s.m*s.k)
				bm := randF32(rng, s.k*s.n)
				bias := randF32(rng, s.m)
				apack := make([]float32, g.PackedASize(s.m, s.k))
				g.PackA(apack, a, s.k, s.m, s.k)
				pbias := g.PackBias(bias, s.m)
				c := make([]float32, s.m*s.n)
				bpack := make([]float32, s.k*g.NR)
				ctile := make([]float32, g.MR*g.NR)
				flops := 2 * float64(s.m) * float64(s.n) * float64(s.k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.Compute(s.m, s.n, s.k, apack, pbias, bm, s.n, c, s.n, bpack, ctile)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
			})
		}
	}
}

// FuzzGemmF32Parity fuzzes shapes, a live-row count and a data seed,
// checking all variants stay bitwise-equal to the scalar reference
// through Compute and each kernel body alone at the live-row count
// rows8%MR+1. The last seed makes that MR on every tier (23 is 5 mod 6
// and 7 mod 8) at an odd K, so each full-panel path is fuzzed.
func FuzzGemmF32Parity(f *testing.F) {
	f.Add(int16(5), int16(17), int16(9), uint8(0), int64(1))
	f.Add(int16(6), int16(16), int16(32), uint8(2), int64(2))
	f.Add(int16(1), int16(1), int16(1), uint8(7), int64(3))
	f.Add(int16(16), int16(48), int16(37), uint8(23), int64(4))
	f.Fuzz(func(t *testing.T, m16, n16, k16 int16, rows8 uint8, seed int64) {
		m := int(m16)%32 + 1
		if m < 1 {
			m += 32
		}
		n := int(n16)%64 + 1
		if n < 1 {
			n += 64
		}
		k := int(k16) % 64
		if k < 0 {
			k += 64
		}
		rng := rand.New(rand.NewSource(seed))
		for _, g := range GemmF32Variants() {
			runVariantF32(t, g, m, n, k, rand.New(rand.NewSource(rng.Int63())))
			runRowsF32(t, g, int(rows8)%g.MR+1, k, rand.New(rand.NewSource(rng.Int63())))
		}
	})
}

// FuzzGemmI16Parity is the quantized analogue of FuzzGemmF32Parity;
// its last seed is a full panel on every tier (7 is 3 mod 4 and 7 mod
// 8) at an odd K.
func FuzzGemmI16Parity(f *testing.F) {
	f.Add(int16(4), int16(9), int16(7), uint8(0), int64(1))
	f.Add(int16(4), int16(16), int16(18), uint8(3), int64(2))
	f.Add(int16(8), int16(32), int16(37), uint8(6), int64(3))
	f.Add(int16(16), int16(32), int16(29), uint8(7), int64(4))
	f.Fuzz(func(t *testing.T, m16, n16, k16 int16, rows8 uint8, seed int64) {
		m := int(m16)%32 + 1
		if m < 1 {
			m += 32
		}
		n := int(n16)%64 + 1
		if n < 1 {
			n += 64
		}
		k := int(k16)%64 + 1
		if k < 1 {
			k += 64
		}
		rng := rand.New(rand.NewSource(seed))
		for _, g := range gemmI16Kernels {
			runVariantI16(t, g, m, n, k, rand.New(rand.NewSource(rng.Int63())))
			runRowsI16(t, g, int(rows8)%g.MR+1, k, rand.New(rand.NewSource(rng.Int63())))
		}
	})
}

// refGemmU8 is the u8×s8 kernel's definition: row i of A at a[i*lda]
// (int8), B in K quads of NR columns at row stride ldb bytes.
func refGemmU8(rows, nr, k int, a []int8, lda int, b []uint8, ldb int, bias []int32, c []int32, ldc int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < nr; j++ {
			acc := bias[i]
			for kk := 0; kk < k; kk++ {
				acc += int32(a[i*lda+kk]) * int32(b[kk/4*ldb+4*j+kk%4])
			}
			c[i*ldc+j] = acc
		}
	}
}

// FuzzGemmU8Parity holds the u8×s8 body to its scalar definition at a
// live-row count rows8%(3*MR)+1 (a short panel alone, full panels, and
// full ones followed by a short one) and a K that need not be a multiple
// of 4 (the A rows zero-padded to a quad, as the caller contract asks),
// with codes at both ends of int8 and u8 and sums that wrap int32. B is
// packed from int8 codes by PackQuadXorInt8 over a ragged column count,
// so the pack's zero fill reaches the body too; the seeds cover one full
// panel at K = 1 and 3, a short one, and two full panels and a short one
// at a deep K. It skips where the host has no u8 body.
func FuzzGemmU8Parity(f *testing.F) {
	f.Add(uint8(7), int16(1), uint8(32), int64(1))
	f.Add(uint8(7), int16(3), uint8(17), int64(2))
	f.Add(uint8(2), int16(37), uint8(5), int64(3))
	f.Add(uint8(20), int16(1155), uint8(31), int64(4))
	f.Fuzz(func(t *testing.T, rows8 uint8, k16 int16, n8 uint8, seed int64) {
		g, ok := PickGemmU8()
		if !ok {
			t.Skip("no u8×s8 body on this host")
		}
		mr, nr := g.MR, g.NR
		maxRows := 3 * mr
		rows := int(rows8)%maxRows + 1
		k := int(k16)%1200 + 1
		if k < 1 {
			k += 1200
		}
		n := int(n8)%nr + 1
		rng := rand.New(rand.NewSource(seed))
		kq := KQuads(k)
		lda, ldc := 4*kq+4, nr+5
		a := randCodes(rng, maxRows*lda)
		src := randCodes(rng, k*n)
		for i := 0; i < maxRows; i++ {
			clear(a[i*lda+k : i*lda+4*kq])
			a[i*lda] = -128
			a[i*lda+k-1] = 127
		}
		src[0], src[len(src)-1] = -128, 127
		b := make([]uint8, kq*4*nr)
		PackQuadXorInt8(b, 4*nr, src, n, k, n)
		// Biases at both ends of int32 make the sums wrap, as the int16
		// kernels' do: a saturating accumulate would differ.
		bias := make([]int32, maxRows)
		for i := range bias {
			switch i % 3 {
			case 0:
				bias[i] = math.MaxInt32 - rng.Int31n(1<<16)
			case 1:
				bias[i] = math.MinInt32 + rng.Int31n(1<<16)
			default:
				bias[i] = rng.Int31() - 1<<30
			}
		}
		want := make([]int32, maxRows*nr)
		refGemmU8(rows, nr, k, a, lda, b, 4*nr, bias, want, nr)

		const sentinel = -0x5eadbeef
		got := make([]int32, maxRows*ldc)
		for i := range got {
			got[i] = sentinel
		}
		g.Run(a, lda, rows, b, 4*nr, kq, bias, got, ldc)
		for i := 0; i < maxRows; i++ {
			for j := 0; j < ldc; j++ {
				w := int32(sentinel)
				if i < rows && j < nr {
					w = want[i*nr+j]
				}
				if got[i*ldc+j] != w {
					t.Fatalf("rows=%d k=%d n=%d: c[%d][%d] = %d, want %d", rows, k, n, i, j, got[i*ldc+j], w)
				}
			}
		}
	})
}
