package tensor

// Register-blocked packed GEMM micro-kernels.
//
// Both inference compilers lower conv and dense layers onto C = A·B
// with M = output channels, N = output pixels (or batch), K = taps:
// that orientation makes each C tile row a contiguous run of one NCHW
// output plane, so full tiles store straight into the destination.
//
// A (the weights) is packed once at kernel-bind time into column-major
// panels of MR rows; B (the activations) is packed per N-tile at run
// time — for convolutions the im2col gather is fused into that pack,
// so no full patch matrix ever materializes. The micro-kernel computes
// one MR x NR tile with an independent accumulator chain per output
// element.
//
// Parity contract (FP32): each accumulator is initialized with the
// row's bias and then adds one mul per K step, in K order, exactly like
// the scalar interpreter's `acc := bias; acc += x*w` loop. Lanes never
// interact, and the kernels use separate multiply and add instructions
// (never FMA, which would skip an intermediate rounding), so every
// variant — generic, SSE2, AVX2, AVX-512 — produces bitwise-identical
// results.
//
// Parity contract (INT8): operands are int16, accumulation is int32
// and therefore associative, so all variants agree exactly; K is
// processed in sign-extended adjacent pairs to match PMADDWD shape,
// with odd K zero-padded during packing.

import "vedliot/internal/tensor/cpu"

// GemmKernelF32 is one FP32 micro-kernel variant plus the tile
// geometry its packed operands must follow.
type GemmKernelF32 struct {
	// MR and NR are the tile height (rows of A/C) and width (columns
	// of B/C) the kernel computes per call.
	MR, NR int
	// Tier identifies the ISA level the kernel requires.
	Tier cpu.Tier
	// Run computes one MR x NR tile: c[i*ldc+j] = bias[i] +
	// sum_k apanel[k*MR+i] * b[k*ldb+j]. apanel is an A panel packed by
	// PackA; b is either a packed tile (ldb = NR) or, for layers whose
	// natural layout already matches, a row-major window with ldb set
	// to the row stride. bias must hold MR entries and c MR rows of NR
	// values at stride ldc.
	Run func(apanel []float32, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
	// RunRows is the row body, for callers whose M is short of a panel
	// (dense layers, where M is the batch): the first rows (1..MR) rows
	// of the tile Run computes, with A read row-major at row stride lda
	// instead of from a packed panel, c[i*ldc+j] = bias[i] + sum_k
	// a[i*lda+kk] * b[kk*ldb+j] for i < rows. Each element's chain is
	// Run's, so the live rows are bitwise what Run stores for a panel
	// whose other rows are zero, at the cost of the live rows only; rows
	// of c at and past rows are not written. bias still holds MR entries.
	RunRows func(a []float32, lda, rows int, b []float32, ldb, k int, bias []float32, c []float32, ldc int)
}

// GemmKernelI16 is one quantized micro-kernel variant. Operands are
// int16 (sign-extended int8 codes and zero-point-shifted activations);
// accumulation is int32. K is consumed in adjacent pairs (PMADDWD
// shape), so packed panels interleave two K values per element.
type GemmKernelI16 struct {
	// MR and NR are the tile height and width in output elements.
	MR, NR int
	// Tier identifies the ISA level the kernel requires.
	Tier cpu.Tier
	// Run computes one MR x NR tile over kPairs K-pairs:
	// c[i*ldc+j] = bias[i] + sum_kp (a0*b0 + a1*b1) where the pair
	// operands come from apanel (PackA layout: kp-major, MR pairs per
	// step) and b (kp-major, NR pairs per step, row stride ldb int16
	// elements; packed tiles use ldb = 2*NR).
	Run func(apanel []int16, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
	// RunRows is the row body (see GemmKernelF32.RunRows): the first
	// rows rows of the tile with A read row-major, row i holding its
	// kPairs adjacent K pairs from a[i*lda] (an odd K zero-padded by the
	// caller); rows of c at and past rows are not written.
	RunRows func(a []int16, lda, rows int, b []int16, ldb, kPairs int, bias []int32, c []int32, ldc int)
}

// kernel variant registries: the generic kernels are always present;
// per-arch init functions append the SIMD variants the host supports.
var (
	gemmF32Kernels = []GemmKernelF32{genericGemmF32}
	gemmI16Kernels = []GemmKernelI16{genericGemmI16}
)

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

// PackedASize returns the length of the packed-A buffer for an m x k
// weight matrix: rows round up to a multiple of MR, zero-padded.
func (g GemmKernelF32) PackedASize(m, k int) int {
	return ceilDiv(m, g.MR) * g.MR * k
}

// PackA packs row-major a (m rows, k columns, row stride lda) into MR
// panels: dst[p*MR*k + kk*MR + i] = a[(p*MR+i)*lda + kk], with rows
// beyond m zero-filled. dst must have PackedASize(m, k) capacity.
func (g GemmKernelF32) PackA(dst []float32, a []float32, lda, m, k int) {
	mr := g.MR
	for p := 0; p < ceilDiv(m, mr); p++ {
		panel := dst[p*mr*k:]
		for kk := 0; kk < k; kk++ {
			for i := 0; i < mr; i++ {
				r := p*mr + i
				if r < m {
					panel[kk*mr+i] = a[r*lda+kk]
				} else {
					panel[kk*mr+i] = 0
				}
			}
		}
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
// b[k*ldb+j] for i < m, j < n, with apack a PackA-packed weight matrix
// and bias already padded (PackBias). bpack (k*NR) and ctile (MR*NR)
// are scratch; nil means allocate. Partial tiles compute into ctile
// and copy only the valid region, so c is never written out of range.
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
		jw := n - j0
		var bt []float32
		bldb := ldb
		if jw < nr {
			g.PackBTile(bpack, b, ldb, k, n, j0)
			bt, bldb = bpack, nr
		} else {
			jw = nr
			bt = b[j0:]
		}
		for p := 0; p*mr < m; p++ {
			ap := apack[p*mr*k : (p+1)*mr*k]
			bp := bias[p*mr : (p+1)*mr]
			ih := m - p*mr
			if ih >= mr && jw == nr {
				g.Run(ap, bt, bldb, k, bp, c[p*mr*ldc+j0:], ldc)
				continue
			}
			g.Run(ap, bt, bldb, k, bp, ctile, nr)
			if ih > mr {
				ih = mr
			}
			for i := 0; i < ih; i++ {
				copy(c[(p*mr+i)*ldc+j0:(p*mr+i)*ldc+j0+jw], ctile[i*nr:i*nr+jw])
			}
		}
	}
}

// KPairs returns the number of K pairs the quantized kernels consume
// for a K-deep reduction (odd K is zero-padded during packing).
func KPairs(k int) int { return (k + 1) / 2 }

// PackedASize returns the length of the packed-A buffer for an m x k
// int16 weight matrix: rows round up to MR, K rounds up to a pair.
func (g GemmKernelI16) PackedASize(m, k int) int {
	return ceilDiv(m, g.MR) * g.MR * 2 * KPairs(k)
}

// PackA packs row-major a (m rows, k columns, row stride lda) into MR
// panels with adjacent K values interleaved per row:
// dst[p*MR*2*kp + kp*MR*2 + i*2 + s] = a[(p*MR+i)*lda + 2*kp+s], with
// rows beyond m and the odd-K tail zero-filled.
func (g GemmKernelI16) PackA(dst []int16, a []int16, lda, m, k int) {
	mr := g.MR
	kp := KPairs(k)
	for p := 0; p < ceilDiv(m, mr); p++ {
		panel := dst[p*mr*2*kp:]
		for pair := 0; pair < kp; pair++ {
			for i := 0; i < mr; i++ {
				r := p*mr + i
				var v0, v1 int16
				if r < m {
					v0 = a[r*lda+2*pair]
					if 2*pair+1 < k {
						v1 = a[r*lda+2*pair+1]
					}
				}
				panel[pair*mr*2+i*2] = v0
				panel[pair*mr*2+i*2+1] = v1
			}
		}
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
// sum_k a[i][k]*b[k*ldb+j] with apack a PackA-packed weight matrix and
// bias padded (PackBias). bpack (KPairs(k)*NR*2) and ctile (MR*NR) are
// scratch; nil means allocate.
func (g GemmKernelI16) Compute(m, n, k int, apack []int16, bias []int32, b []int16, ldb int, c []int32, ldc int, bpack []int16, ctile []int32) {
	mr, nr := g.MR, g.NR
	kp := KPairs(k)
	if bpack == nil {
		bpack = make([]int16, kp*nr*2)
	}
	if ctile == nil {
		ctile = make([]int32, mr*nr)
	}
	for j0 := 0; j0 < n; j0 += nr {
		jw := n - j0
		if jw > nr {
			jw = nr
		}
		g.PackBTile(bpack, b, ldb, k, n, j0)
		for p := 0; p*mr < m; p++ {
			ap := apack[p*mr*2*kp : (p+1)*mr*2*kp]
			bp := bias[p*mr : (p+1)*mr]
			ih := m - p*mr
			if ih >= mr && jw == nr {
				g.Run(ap, bpack, 2*nr, kp, bp, c[p*mr*ldc+j0:], ldc)
				continue
			}
			g.Run(ap, bpack, 2*nr, kp, bp, ctile, nr)
			if ih > mr {
				ih = mr
			}
			for i := 0; i < ih; i++ {
				copy(c[(p*mr+i)*ldc+j0:(p*mr+i)*ldc+j0+jw], ctile[i*nr:i*nr+jw])
			}
		}
	}
}
