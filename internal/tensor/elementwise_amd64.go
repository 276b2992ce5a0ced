//go:build amd64 && !purego

package tensor

import "vedliot/internal/tensor/cpu"

// amd64 dispatch of the FP32 kernels in elementwise.go: one AVX2 body
// each. Dispatch honors the VEDLIOT_CPU tier clamp like the GEMM and
// integer kernels, but resolves it once: these kernels run on spans as
// short as one image row, where a per-call sync.Once load is
// measurable. The flat kernels cover whole vectors and leave the ragged
// end to the portable loop in their caller; the row and tile kernels
// finish each row themselves.

// ewAVX2 is pinned at package init: Best() is itself immutable after
// its first call (VEDLIOT_CPU is read once), so a plain bool is safe
// and avoids the per-call atomic.
var ewAVX2 = cpu.Best() >= cpu.TierAVX2

func convTapsF32Accel(acc, x []float32, offs []int32, w []float32, bias float32, fromAcc bool) int {
	n := len(acc) &^ 7
	if n == 0 || len(offs) == 0 || !ewAVX2 {
		return 0
	}
	convTapsF32AVX2(&acc[0], n, &x[0], &offs[0], &w[0], len(offs), bias, fromAcc)
	return n
}

func padRowsF32Accel(dst []float32, rowOff []int32, src []float32, cols int) bool {
	if !ewAVX2 {
		return false
	}
	padRowsF32AVX2(&dst[0], &rowOff[0], len(rowOff), &src[0], cols)
	return true
}

func padSplit2RowsF32Accel(dst []float32, rowOff []int32, offE, offO int, src []float32, cols int) bool {
	if !ewAVX2 {
		return false
	}
	padSplit2RowsF32AVX2(&dst[0], &rowOff[0], len(rowOff), offE, offO, &src[0], cols)
	return true
}

// stride2Prefix returns how many outputs the stride-2 gather may
// produce: a multiple of 8, with every 8-output group backed by a full
// 16-element read of x (the vector load reads one element past the
// last 2*i index it uses).
func stride2Prefix(nd, nx int) int {
	n := nd &^ 7
	if m := (nx / 16) * 8; m < n {
		n = m
	}
	return n
}

func gatherStride2F32Accel(dst, x []float32) int {
	n := stride2Prefix(len(dst), len(x))
	if n == 0 || !ewAVX2 {
		return 0
	}
	gatherStride2F32AVX2(&dst[0], &x[0], n)
	return n
}

func epilogueTileF32Accel(dst []float32, ldd int, src []float32, lds, rows, cols int, scale, shift []float32, step int, act Act) bool {
	if !ewAVX2 {
		return false
	}
	var sc, sh *float32
	if scale != nil {
		sc, sh = &scale[0], &shift[0]
	}
	epilogueTileF32AVX2(&dst[0], ldd, &src[0], lds, rows, cols, sc, sh, step, int(act))
	return true
}

// convTapsF32AVX2 computes acc[i] = seed + sum_t w[t]*x[offs[t]+i] for
// i < n with one VMULPS and one VADDPS per tap, in tap order; n must be
// a positive multiple of 8 and taps positive.
//
//go:noescape
func convTapsF32AVX2(acc *float32, n int, x *float32, offs *int32, w *float32, taps int, bias float32, fromAcc bool)

// padRowsF32AVX2 copies row r (cols values) to dst[rowOff[r]:]; rows
// and cols must be positive.
//
//go:noescape
func padRowsF32AVX2(dst *float32, rowOff *int32, rows int, src *float32, cols int)

// padSplit2RowsF32AVX2 copies row r's even columns to
// dst[rowOff[r]+offE:] and its odd ones to dst[rowOff[r]+offO:]; rows
// and cols must be positive.
//
//go:noescape
func padSplit2RowsF32AVX2(dst *float32, rowOff *int32, rows int, offE, offO int, src *float32, cols int)

// gatherStride2F32AVX2 copies dst[i] = x[2*i] for i < n; n must be a
// multiple of 8 and x must hold 2*n elements.
//
//go:noescape
func gatherStride2F32AVX2(dst, x *float32, n int)

// epilogueTileF32AVX2 is the whole of EpilogueTileF32: scale is nil for
// no affine, step is 0 or 1 (the per-row advance of scale and shift),
// act an Act value; rows and cols must be positive.
//
//go:noescape
func epilogueTileF32AVX2(dst *float32, ldd int, src *float32, lds, rows, cols int, scale, shift *float32, step, act int)
