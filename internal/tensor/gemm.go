package tensor

// Register-blocked GEMM micro-kernels, one body per tier and dtype, and
// one u8×s8 body on hosts that report VNNI.
//
// Both inference compilers lower conv and dense layers onto C = A·B.
// A is row-major (row i at a[i*lda]) and a kernel computes the first
// rows (1..MR) rows of one MR x NR tile of C from an NR-wide window of
// B, with an independent accumulator chain per output element, so a
// short panel costs its own rows only. Convolutions take M = output
// channels, N = output pixels, K = taps (A is the weight matrix, B a
// tile built per call with the im2col gather fused in, or the input
// planes themselves); dense layers take M = samples, N = out features
// (A is the staged activation rows, B the bind-time packed weights).
//
// Parity contract (FP32): each accumulator is initialized with the
// row's bias and then adds one mul per K step, in K order, exactly like
// the scalar interpreter's `acc := bias; acc += x*w` loop. Lanes never
// interact, and the kernels use separate multiply and add instructions
// (never FMA, which would skip an intermediate rounding), so every
// variant — generic, SSE2, AVX2, AVX-512 — produces bitwise-identical
// results.
//
// Parity contract (INT8): accumulation is int32 and therefore
// associative, so all variants agree exactly. The int16 kernels take K
// in sign-extended adjacent pairs (PMADDWD shape), each A row's odd K
// zero-padded to a pair, and B the zero-point-shifted codes x - zp. The
// u8×s8 kernel (VPDPBUSD shape, VNNI hosts) takes K in quads, each A
// row zero-padded to a quad, and B the codes with their top bit flipped,
// x XOR 0x80 = x + 128 as a u8; its caller folds the shift into the
// bias, bias - (zp+128)·Σw, so it sums bias + Σ w·(x+128) - (zp+128)·Σw
// = bias + Σ w·(x - zp), the int16 kernels' sum, bit for bit (every
// product is at most 128·255 in magnitude, the same bound as theirs).

import "vedliot/internal/tensor/cpu"

// GemmKernelF32 is one FP32 micro-kernel variant plus the tile
// geometry its operands must follow.
type GemmKernelF32 struct {
	// MR and NR are the tile height (rows of A/C) and width (columns
	// of B/C) the kernel computes per call.
	MR, NR int
	// Tier identifies the ISA level the kernel requires.
	Tier cpu.Tier
	// Run computes the first rows (1..MR) rows of one MR x NR tile:
	// c[i*ldc+j] = bias[i] + sum_kk a[i*lda+kk] * b[kk*ldb+j] for
	// i < rows. b is either a packed tile (ldb = NR) or a row-major
	// window with ldb set to the row stride. bias holds MR entries; rows
	// of c at and past rows are not written.
	Run func(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
}

// GemmKernelI16 is one quantized micro-kernel variant. Operands are
// int16 (sign-extended int8 codes and zero-point-shifted activations);
// accumulation is int32. K is consumed in adjacent pairs (PMADDWD
// shape).
type GemmKernelI16 struct {
	// MR and NR are the tile height and width in output elements.
	MR, NR int
	// Tier identifies the ISA level the kernel requires.
	Tier cpu.Tier
	// Run computes the first rows rows of one tile over kPairs K pairs:
	// c[i*ldc+j] = bias[i] + sum_kp (a0*b0 + a1*b1), row i of A holding
	// its adjacent K pairs from a[i*lda] (an odd K zero-padded) and b
	// holding NR pairs per K-pair step at row stride ldb int16 elements
	// (packed tiles use ldb = 2*NR). bias holds MR entries; rows of c at
	// and past rows are not written.
	Run func(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
}

// GemmKernelU8 is the u8×s8 quantized micro-kernel. A holds int8
// weight codes, B unsigned bytes (PackQuadXorInt8), accumulation is
// int32, K is consumed in quads (VPDPBUSD shape).
type GemmKernelU8 struct {
	// MR and NR are the tile height and width in output elements.
	MR, NR int
	// Run computes rows rows (rows >= 1, as MR-row panels, the last one
	// short) of one NR-wide column window over kQuads K quads:
	// c[i*ldc+j] = bias[i] + sum_k a[i*lda+k] * int32(b[k/4*ldb+4*j+k%4]),
	// row i of A holding its K from a[i*lda] (zero-padded to a quad) and
	// b holding NR quads per K-quad step at row stride ldb bytes (packed
	// tiles use ldb = 4*NR). Every panel seeds MR rows, so bias holds
	// rows rounded up to MR entries; rows of c at and past rows are not
	// written.
	Run func(a []int8, lda, rows int, b []uint8, ldb, kQuads int, bias []int32, c []int32, ldc int)
}

// kernel variant registries: the generic kernels are always present;
// per-arch init functions append the SIMD variants the host supports.
var (
	gemmF32Kernels = []GemmKernelF32{genericGemmF32}
	gemmI16Kernels = []GemmKernelI16{genericGemmI16}
	// gemmU8 is the u8×s8 body where the host has one (VNNI).
	gemmU8 GemmKernelU8
)

// PickGemmU8 returns the u8×s8 micro-kernel and true where the host
// reports AVX512VNNI and the selected tier is AVX-512 (a VEDLIOT_CPU
// clamp below it turns VNNI off with the rest of AVX-512). Elsewhere ok
// is false and INT8 convolutions run the int16 kernels.
func PickGemmU8() (GemmKernelU8, bool) {
	return gemmU8, gemmU8.Run != nil && cpu.Best() >= cpu.TierAVX512
}

// GemmF32Variants returns every FP32 micro-kernel variant compiled
// into this binary that the host can execute, narrowest first. Parity
// tests iterate this list; normal callers use PickGemmF32.
func GemmF32Variants() []GemmKernelF32 {
	out := make([]GemmKernelF32, len(gemmF32Kernels))
	copy(out, gemmF32Kernels)
	return out
}

// PickGemmF32 returns the widest FP32 micro-kernel at or below the
// selected CPU tier (cpu.Best, which honors the VEDLIOT_CPU override).
func PickGemmF32() GemmKernelF32 {
	best := cpu.Best()
	pick := gemmF32Kernels[0]
	for _, k := range gemmF32Kernels[1:] {
		if k.Tier <= best && k.Tier > pick.Tier {
			pick = k
		}
	}
	return pick
}

// PickGemmI16 returns the widest quantized micro-kernel at or below
// the selected CPU tier.
func PickGemmI16() GemmKernelI16 {
	best := cpu.Best()
	pick := gemmI16Kernels[0]
	for _, k := range gemmI16Kernels[1:] {
		if k.Tier <= best && k.Tier > pick.Tier {
			pick = k
		}
	}
	return pick
}

// PickGemmF32MaxWidth returns the widest-tier FP32 kernel whose tile
// width does not exceed maxNR, for problems whose N dimension is
// intrinsically narrow (dense layers, where N is the batch): a
// too-wide tile burns its extra lanes on zero padding, which costs
// more than the wider ISA recovers. Falls back to the narrowest
// available tile when nothing fits.
func PickGemmF32MaxWidth(maxNR int) GemmKernelF32 {
	best := cpu.Best()
	var pick GemmKernelF32
	haveFit := false
	for _, k := range gemmF32Kernels {
		if k.Tier > best {
			continue
		}
		if k.NR <= maxNR {
			if !haveFit || k.Tier > pick.Tier {
				pick, haveFit = k, true
			}
		} else if !haveFit && (pick.Run == nil || k.NR < pick.NR) {
			pick = k
		}
	}
	return pick
}

// PickGemmI16MaxWidth is the quantized analogue of
// PickGemmF32MaxWidth.
func PickGemmI16MaxWidth(maxNR int) GemmKernelI16 {
	best := cpu.Best()
	var pick GemmKernelI16
	haveFit := false
	for _, k := range gemmI16Kernels {
		if k.Tier > best {
			continue
		}
		if k.NR <= maxNR {
			if !haveFit || k.Tier > pick.Tier {
				pick, haveFit = k, true
			}
		} else if !haveFit && (pick.Run == nil || k.NR < pick.NR) {
			pick = k
		}
	}
	return pick
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PackedASize returns the length of the A buffer PackA fills for an
// m x k weight matrix.
func (g GemmKernelF32) PackedASize(m, k int) int { return m * k }

// PackA copies row-major a (m rows, k columns, row stride lda) into dst
// at row stride k, the layout Compute reads. dst must have
// PackedASize(m, k) capacity.
func (g GemmKernelF32) PackA(dst []float32, a []float32, lda, m, k int) {
	for i := 0; i < m; i++ {
		copy(dst[i*k:(i+1)*k], a[i*lda:])
	}
}

// PackBias returns bias padded with zeros to a multiple of MR, so the
// kernel can always initialize a full tile of accumulators.
func (g GemmKernelF32) PackBias(bias []float32, m int) []float32 {
	out := make([]float32, ceilDiv(m, g.MR)*g.MR)
	copy(out, bias[:m])
	return out
}

// PackBTile packs an NR-wide tile of row-major b (k rows, row stride
// ldb) starting at column j0 into dst (kk-major, NR per step), zero-
// padding columns past n. dst needs k*NR elements.
func (g GemmKernelF32) PackBTile(dst []float32, b []float32, ldb, k, n, j0 int) {
	nr := g.NR
	w := n - j0
	if w > nr {
		w = nr
	}
	for kk := 0; kk < k; kk++ {
		row := b[kk*ldb+j0:]
		out := dst[kk*nr : kk*nr+nr]
		copy(out[:w], row[:w])
		for j := w; j < nr; j++ {
			out[j] = 0
		}
	}
}

// Compute runs the full GEMM c[i*ldc+j] = bias[i] + sum_k a[i][k] *
// b[k*ldb+j] for i < m, j < n, with apack filled by PackA and bias
// padded by PackBias. bpack (k*NR) and ctile (MR*NR) are scratch; nil
// means allocate. A tile whose N is short computes into ctile and
// copies only the valid region, so c is never written out of range.
func (g GemmKernelF32) Compute(m, n, k int, apack, bias []float32, b []float32, ldb int, c []float32, ldc int, bpack, ctile []float32) {
	if k == 0 {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			bi := bias[i]
			for j := range row {
				row[j] = bi
			}
		}
		return
	}
	mr, nr := g.MR, g.NR
	if bpack == nil {
		bpack = make([]float32, k*nr)
	}
	if ctile == nil {
		ctile = make([]float32, mr*nr)
	}
	for j0 := 0; j0 < n; j0 += nr {
		jw := min(n-j0, nr)
		bt, bldb := b[j0:], ldb
		if jw < nr {
			g.PackBTile(bpack, b, ldb, k, n, j0)
			bt, bldb = bpack, nr
		}
		for i0 := 0; i0 < m; i0 += mr {
			rows := min(m-i0, mr)
			if jw == nr {
				g.Run(apack[i0*k:], k, rows, bt, bldb, k, bias[i0:], c[i0*ldc+j0:], ldc)
				continue
			}
			g.Run(apack[i0*k:], k, rows, bt, bldb, k, bias[i0:], ctile, nr)
			for i := 0; i < rows; i++ {
				copy(c[(i0+i)*ldc+j0:(i0+i)*ldc+j0+jw], ctile[i*nr:i*nr+jw])
			}
		}
	}
}

// KPairs returns the number of K pairs the quantized kernels consume
// for a K-deep reduction (odd K is zero-padded during packing).
func KPairs(k int) int { return (k + 1) / 2 }

// KQuads returns the number of K quads the u8×s8 kernel consumes for a
// K-deep reduction (K is zero-padded to a quad).
func KQuads(k int) int { return (k + 3) / 4 }

// PackedASize returns the length of the A buffer PackA fills for an
// m x k int16 weight matrix: each row's K rounds up to a pair.
func (g GemmKernelI16) PackedASize(m, k int) int { return m * 2 * KPairs(k) }

// PackA copies row-major a (m rows, k columns, row stride lda) into dst
// at row stride 2*KPairs(k), zero-filling each row's odd-K tail: row
// i's adjacent K pairs, the layout Run reads.
func (g GemmKernelI16) PackA(dst []int16, a []int16, lda, m, k int) {
	ld := 2 * KPairs(k)
	for i := 0; i < m; i++ {
		row := dst[i*ld : (i+1)*ld]
		copy(row, a[i*lda:i*lda+k])
		clear(row[k:])
	}
}

// PackBias returns bias padded with zeros to a multiple of MR.
func (g GemmKernelI16) PackBias(bias []int32, m int) []int32 {
	out := make([]int32, ceilDiv(m, g.MR)*g.MR)
	copy(out, bias[:m])
	return out
}

// PackBTile packs an NR-wide tile of row-major b (k rows, row stride
// ldb) starting at column j0 into dst with adjacent K values
// interleaved per column: dst[pair*NR*2 + j*2 + s] = b[(2*pair+s)*ldb
// + j0+j], zero-padding columns past n and the odd-K tail. dst needs
// KPairs(k)*NR*2 elements.
func (g GemmKernelI16) PackBTile(dst []int16, b []int16, ldb, k, n, j0 int) {
	nr := g.NR
	kp := KPairs(k)
	w := n - j0
	if w > nr {
		w = nr
	}
	for pair := 0; pair < kp; pair++ {
		out := dst[pair*nr*2 : (pair+1)*nr*2]
		r0 := b[2*pair*ldb+j0:]
		var r1 []int16
		if 2*pair+1 < k {
			r1 = b[(2*pair+1)*ldb+j0:]
		}
		for j := 0; j < w; j++ {
			out[j*2] = r0[j]
			if r1 != nil {
				out[j*2+1] = r1[j]
			} else {
				out[j*2+1] = 0
			}
		}
		for j := w; j < nr; j++ {
			out[j*2] = 0
			out[j*2+1] = 0
		}
	}
}

// Compute runs the full quantized GEMM c[i*ldc+j] = bias[i] +
// sum_k a[i][k]*b[k*ldb+j] with apack filled by PackA and bias padded
// by PackBias. bpack (KPairs(k)*NR*2) and ctile (MR*NR) are scratch;
// nil means allocate.
func (g GemmKernelI16) Compute(m, n, k int, apack []int16, bias []int32, b []int16, ldb int, c []int32, ldc int, bpack []int16, ctile []int32) {
	mr, nr := g.MR, g.NR
	kp := KPairs(k)
	lda := 2 * kp
	if bpack == nil {
		bpack = make([]int16, kp*nr*2)
	}
	if ctile == nil {
		ctile = make([]int32, mr*nr)
	}
	for j0 := 0; j0 < n; j0 += nr {
		jw := min(n-j0, nr)
		g.PackBTile(bpack, b, ldb, k, n, j0)
		for i0 := 0; i0 < m; i0 += mr {
			rows := min(m-i0, mr)
			if jw == nr {
				g.Run(apack[i0*lda:], lda, rows, bpack, 2*nr, kp, bias[i0:], c[i0*ldc+j0:], ldc)
				continue
			}
			g.Run(apack[i0*lda:], lda, rows, bpack, 2*nr, kp, bias[i0:], ctile, nr)
			for i := 0; i < rows; i++ {
				copy(c[(i0+i)*ldc+j0:(i0+i)*ldc+j0+jw], ctile[i*nr:i*nr+jw])
			}
		}
	}
}
