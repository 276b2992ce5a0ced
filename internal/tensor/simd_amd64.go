//go:build amd64 && !purego && !noasm

package tensor

import "vedliot/internal/tensor/cpu"

// amd64 dispatch of the integer kernels in simd.go, requant.go and
// int8.go: one assembly body per tier and kernel (simd_sse2_amd64.s,
// simd_avx2_amd64.s, simd_avx512_amd64.s), chosen by the tier cpu.Best
// reports, so the VEDLIOT_CPU clamp narrows these kernels exactly as it
// narrows the GEMM micro-kernels. The tier is resolved once: Best is
// immutable after its first call, and these kernels run on spans as
// short as one image row, where a per-call sync.Once load is measurable.
//
// An AVX-512 body masks its ragged end and covers its whole range. The
// SSE2 and AVX2 bodies cover whole vectors and the portable loop in the
// caller finishes the row. A kernel has no body on a tier where its
// portable loop costs the INT8 row no more than 2% (DESIGN.md, "What
// each assembly body buys"): the stride-2 gather, row sums and row
// scaling run assembly on AVX-512 only, the narrowing store on AVX2 and
// up. The byte table is the one kernel whose body follows a feature bit
// instead of the tier alone: VPERMI2B where the AVX-512 tier also has
// VBMI, PSHUFB nibble select on the AVX2 tier (and on an AVX-512 tier
// without VBMI), and the portable loop below AVX2.
//
// What the integer path buys on a host whose FP32 vectors are as wide as
// its integer ones is a quarter of the activation bytes and PMADDWD's
// two multiply-accumulates per 32-bit lane; whether that makes a
// quantized run faster than the FP32 one is measured (the quantized
// study, TestStepProfileBatch1), not assumed.

// FastInt8 reports whether SIMD bodies back the integer kernels. Timing
// checks on the quantized engine only apply where this is true; the
// portable bodies are correct but scalar.
const FastInt8 = true

var (
	int8Tier = cpu.Best()
	lut8VBMI = int8Tier >= cpu.TierAVX512 && cpu.Detect().AVX512VBMI
)

func convTapsInt16Accel(acc []int32, x []int16, offs []int32, w []int16, bias int32, fromAcc bool) int {
	if len(offs) == 0 {
		return 0
	}
	switch {
	case int8Tier >= cpu.TierAVX512:
		convTapsInt16AVX512(&acc[0], len(acc), &x[0], &offs[0], &w[0], len(offs), bias, fromAcc)
		return len(acc)
	case int8Tier >= cpu.TierAVX2:
		if n := len(acc) &^ 15; n > 0 {
			convTapsInt16AVX2(&acc[0], n, &x[0], &offs[0], &w[0], len(offs), bias, fromAcc)
			return n
		}
	case int8Tier >= cpu.TierSSE2:
		if n := len(acc) &^ 7; n > 0 {
			convTapsInt16SSE2(&acc[0], n, &x[0], &offs[0], &w[0], len(offs), bias, fromAcc)
			return n
		}
	}
	return 0
}

func widenShiftRowsInt8Accel(dst []int16, rowOff []int32, src []int8, cols int, zp int16) bool {
	if len(rowOff) == 0 {
		return true
	}
	switch {
	case int8Tier >= cpu.TierAVX512:
		widenShiftRowsInt8AVX512(&dst[0], &rowOff[0], len(rowOff), &src[0], cols, zp)
		return true
	case int8Tier >= cpu.TierAVX2:
		widenShiftRowsInt8AVX2(&dst[0], &rowOff[0], len(rowOff), &src[0], cols, zp)
		return true
	case int8Tier >= cpu.TierSSE2:
		widenShiftRowsInt8SSE2(&dst[0], &rowOff[0], len(rowOff), &src[0], cols, zp)
		return true
	}
	return false
}

func widenShiftSplit2RowsInt8Accel(dst []int16, rowOff []int32, offE, offO int, src []int8, cols int, zp int16) bool {
	if len(rowOff) == 0 {
		return true
	}
	switch {
	case int8Tier >= cpu.TierAVX512:
		widenShiftSplit2RowsInt8AVX512(&dst[0], &rowOff[0], len(rowOff), offE, offO, &src[0], cols, zp)
		return true
	case int8Tier >= cpu.TierAVX2:
		widenShiftSplit2RowsInt8AVX2(&dst[0], &rowOff[0], len(rowOff), offE, offO, &src[0], cols, zp)
		return true
	case int8Tier >= cpu.TierSSE2:
		widenShiftSplit2RowsInt8SSE2(&dst[0], &rowOff[0], len(rowOff), offE, offO, &src[0], cols, zp)
		return true
	}
	return false
}

func packPairShiftInt8Accel(out []int16, ldo int, src []int8, lds, taps, n int, zp int16) bool {
	switch {
	case int8Tier >= cpu.TierAVX512:
		packPairShiftInt8AVX512(&out[0], ldo, &src[0], lds, taps, n, zp)
	case int8Tier >= cpu.TierAVX2:
		packPairShiftInt8AVX2(&out[0], ldo, &src[0], lds, taps, n, zp)
	case int8Tier >= cpu.TierSSE2:
		packPairShiftInt8SSE2(&out[0], ldo, &src[0], lds, taps, n, zp)
	default:
		return false
	}
	return true
}

func gatherStride2Int8Accel(dst, src []int8) int {
	if int8Tier < cpu.TierAVX512 {
		return 0
	}
	gatherStride2Int8AVX512(&dst[0], &src[0], len(dst))
	return len(dst)
}

func sumRowsInt8Accel(sums []int32, x []int8, cols int) bool {
	if int8Tier < cpu.TierAVX512 {
		return false
	}
	sumRowsInt8AVX512(&sums[0], &x[0], len(sums), cols)
	return true
}

func scaleRowsInt16Accel(acc []int32, x []int16, f []int16, cols int) bool {
	if int8Tier < cpu.TierAVX512 {
		return false
	}
	scaleRowsInt16AVX512(&acc[0], &x[0], &f[0], len(f), cols)
	return true
}

func lut8RowsAccel(dst, src []int8, ld, rows, cols int, tabs []*[256]int8) bool {
	switch {
	case lut8VBMI:
		lut8RowsVBMI(&dst[0], &src[0], ld, rows, cols, &tabs[0])
		return true
	case int8Tier >= cpu.TierAVX2:
		lut8RowsAVX2(&dst[0], &src[0], ld, rows, cols, &tabs[0])
		return true
	}
	return false
}

func accumLUT32Accel(acc []int32, src []int8, lut *[256]int32, seed int32, fromAcc bool) int {
	n := len(src)
	if n == 0 {
		return 0
	}
	switch {
	case int8Tier >= cpu.TierAVX512:
		accumLUT32AVX512(&acc[0], &src[0], n, lut, seed, fromAcc)
		return n
	case int8Tier >= cpu.TierAVX2:
		if n &^= 7; n > 0 {
			accumLUT32AVX2(&acc[0], &src[0], n, lut, seed, fromAcc)
			return n
		}
	}
	return 0
}

func narrowSatInt8Accel(dst []int8, acc []int32) int {
	n := len(acc)
	if n == 0 {
		return 0
	}
	switch {
	case int8Tier >= cpu.TierAVX512:
		narrowSatInt8AVX512(&dst[0], &acc[0], n)
		return n
	case int8Tier >= cpu.TierAVX2:
		if n &^= 15; n > 0 {
			narrowSatInt8AVX2(&dst[0], &acc[0], n)
			return n
		}
	}
	return 0
}

func requantTileInt8Accel(dst []int8, ldd int, c []int32, ldc, rows, cols int, req []Requant, zp int32) int {
	switch {
	case int8Tier >= cpu.TierAVX512:
		requantTileInt8AVX512(&dst[0], ldd, &c[0], ldc, rows, cols, &req[0], zp)
		return cols
	case int8Tier >= cpu.TierAVX2:
		if cols &^= 15; cols > 0 {
			requantTileInt8AVX2(&dst[0], ldd, &c[0], ldc, rows, cols, &req[0], zp)
			return cols
		}
	case int8Tier >= cpu.TierSSE2:
		if cols &^= 15; cols > 0 {
			requantTileInt8SSE2(&dst[0], ldd, &c[0], ldc, rows, cols, &req[0], zp)
			return cols
		}
	}
	return 0
}

func quantizeSliceAccel(dst []int8, src []float32, inv, zero float64) int {
	n := len(src) &^ 7
	if n == 0 {
		return 0
	}
	switch {
	case int8Tier >= cpu.TierAVX512:
		quantizeSliceAVX512(&dst[0], &src[0], n, inv, zero)
		return n
	case int8Tier >= cpu.TierAVX2:
		quantizeSliceAVX2(&dst[0], &src[0], n, inv, zero)
		return n
	case int8Tier >= cpu.TierSSE2:
		quantizeSliceSSE2(&dst[0], &src[0], n, inv, zero)
		return n
	}
	return 0
}

//go:noescape
func convTapsInt16AVX512(acc *int32, n int, x *int16, offs *int32, w *int16, taps int, bias int32, fromAcc bool)

//go:noescape
func widenShiftRowsInt8AVX512(dst *int16, rowOff *int32, rows int, src *int8, cols int, zp int16)

//go:noescape
func widenShiftSplit2RowsInt8AVX512(dst *int16, rowOff *int32, rows int, offE, offO int, src *int8, cols int, zp int16)

//go:noescape
func packPairShiftInt8AVX512(out *int16, ldo int, src *int8, lds int, taps, n int, zp int16)

//go:noescape
func gatherStride2Int8AVX512(dst, src *int8, n int)

//go:noescape
func sumRowsInt8AVX512(sums *int32, x *int8, rows, cols int)

//go:noescape
func scaleRowsInt16AVX512(acc *int32, x *int16, f *int16, rows, cols int)

//go:noescape
func lut8RowsVBMI(dst, src *int8, ld, rows, cols int, tabs **[256]int8)

//go:noescape
func accumLUT32AVX512(acc *int32, src *int8, n int, lut *[256]int32, seed int32, fromAcc bool)

//go:noescape
func narrowSatInt8AVX512(dst *int8, acc *int32, n int)

//go:noescape
func requantTileInt8AVX512(dst *int8, ldd int, c *int32, ldc int, rows, cols int, req *Requant, zp int32)

//go:noescape
func quantizeSliceAVX512(dst *int8, src *float32, n int, inv, zero float64)

//go:noescape
func convTapsInt16AVX2(acc *int32, n int, x *int16, offs *int32, w *int16, taps int, bias int32, fromAcc bool)

//go:noescape
func widenShiftRowsInt8AVX2(dst *int16, rowOff *int32, rows int, src *int8, cols int, zp int16)

//go:noescape
func widenShiftSplit2RowsInt8AVX2(dst *int16, rowOff *int32, rows int, offE, offO int, src *int8, cols int, zp int16)

//go:noescape
func packPairShiftInt8AVX2(out *int16, ldo int, src *int8, lds int, taps, n int, zp int16)

//go:noescape
func lut8RowsAVX2(dst, src *int8, ld, rows, cols int, tabs **[256]int8)

//go:noescape
func accumLUT32AVX2(acc *int32, src *int8, n int, lut *[256]int32, seed int32, fromAcc bool)

//go:noescape
func narrowSatInt8AVX2(dst *int8, acc *int32, n int)

//go:noescape
func requantTileInt8AVX2(dst *int8, ldd int, c *int32, ldc int, rows, cols int, req *Requant, zp int32)

//go:noescape
func quantizeSliceAVX2(dst *int8, src *float32, n int, inv, zero float64)

//go:noescape
func convTapsInt16SSE2(acc *int32, n int, x *int16, offs *int32, w *int16, taps int, bias int32, fromAcc bool)

//go:noescape
func widenShiftRowsInt8SSE2(dst *int16, rowOff *int32, rows int, src *int8, cols int, zp int16)

//go:noescape
func widenShiftSplit2RowsInt8SSE2(dst *int16, rowOff *int32, rows int, offE, offO int, src *int8, cols int, zp int16)

//go:noescape
func packPairShiftInt8SSE2(out *int16, ldo int, src *int8, lds int, taps, n int, zp int16)

//go:noescape
func requantTileInt8SSE2(dst *int8, ldd int, c *int32, ldc int, rows, cols int, req *Requant, zp int32)

//go:noescape
func quantizeSliceSSE2(dst *int8, src *float32, n int, inv, zero float64)
