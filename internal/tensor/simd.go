package tensor

// Integer kernels of the native INT8 execution path.
//
// Every kernel here has one portable Go body, which is its definition,
// and on amd64 one assembly body per tier (SSE2, AVX2, AVX-512; see
// simd_amd64.go). All of them compute in exact int32 (or move bytes), so
// every body of a kernel returns the same bits: the cross-tier tests and
// fuzz targets in simd_test.go compare each dispatched kernel with the
// portable body under every VEDLIOT_CPU clamp. An accelerated body
// covers a prefix of its range (or all of it) and reports how far it
// got; the portable body finishes the rest.

// WidenShiftInt8 computes dst[i] = int16(src[i]) - zp over
// min(len(dst), len(src)) elements — the zero-point shift that turns
// stored int8 activation codes into the int16 operand form of the
// integer kernels.
func WidenShiftInt8(dst []int16, src []int8, zp int16) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	for i := widenShiftInt8Accel(dst, src, zp); i < n; i++ {
		dst[i] = int16(src[i]) - zp
	}
}

// PackPairShiftInt8 packs the rows of a row-major int8 matrix (taps rows
// of n codes at row stride lds) into the pair layout of the PMADDWD
// micro-kernels, zero-point shift fused: pair p < KPairs(taps) takes
// rows 2p and 2p+1,
//
//	out[p*ldo+2i]   = int16(src[2p*lds+i]) - zp
//	out[p*ldo+2i+1] = int16(src[(2p+1)*lds+i]) - zp
//
// for i < n, with 0 in place of the second row when taps is odd and the
// last row has no partner, and zeros from 2n up to the pair's ldo
// entries (the columns a ragged tile does not have). ldo is at least 2n.
func PackPairShiftInt8(out []int16, ldo int, src []int8, lds, taps, n int, zp int16) {
	if taps == 0 {
		return
	}
	kp := KPairs(taps)
	_, _, _ = out[:kp*ldo], src[:(taps-1)*lds+n], out[:ldo-2*n]
	if n == 0 {
		clear(out[:kp*ldo])
		return
	}
	if packPairShiftInt8Accel(out, ldo, src, lds, taps, n, zp) {
		return
	}
	for p := 0; p < kp; p++ {
		o := out[p*ldo : (p+1)*ldo]
		r0 := src[2*p*lds:][:n]
		if 2*p+1 < taps {
			r1 := src[(2*p+1)*lds:][:n]
			for i, v := range r0 {
				o[2*i] = int16(v) - zp
				o[2*i+1] = int16(r1[i]) - zp
			}
		} else {
			for i, v := range r0 {
				o[2*i] = int16(v) - zp
				o[2*i+1] = 0
			}
		}
		clear(o[2*n:])
	}
}

// PackQuadXorInt8 packs the rows of a row-major int8 matrix (taps rows
// of n codes at row stride lds) into the quad layout of the u8×s8
// micro-kernel (GemmKernelU8), each code's top bit flipped: quad q <
// KQuads(taps) takes rows 4q..4q+3,
//
//	out[q*ldo+4i+s] = uint8(src[(4q+s)*lds+i]) ^ 0x80
//
// for i < n and s < 4, with code 0 (0x80) in place of the rows past
// taps and from 4n up to the quad's ldo bytes (the columns a ragged tile
// does not have). ldo is at least 4n.
func PackQuadXorInt8(out []uint8, ldo int, src []int8, lds, taps, n int) {
	if taps == 0 {
		return
	}
	kq := KQuads(taps)
	_, _, _ = out[:kq*ldo], src[:(taps-1)*lds+n], out[:ldo-4*n]
	if n > 0 && packQuadXorInt8Accel(out, ldo, src, lds, taps, n) {
		return
	}
	for q := 0; q < kq; q++ {
		o := out[q*ldo : (q+1)*ldo]
		for i := range o {
			o[i] = 0x80
		}
		for s := 0; s < 4 && 4*q+s < taps; s++ {
			for i, v := range src[(4*q+s)*lds:][:n] {
				o[4*i+s] = uint8(v) ^ 0x80
			}
		}
	}
}

// GatherStride2Int8 copies dst[i] = src[2*i] — the stride-2 im2col row
// gather on int8 codes. src must hold at least 2*len(dst)-1 elements.
func GatherStride2Int8(dst, src []int8) {
	if len(dst) == 0 {
		return
	}
	src = src[:2*len(dst)-1]
	for i := gatherStride2Int8Accel(dst, src); i < len(dst); i++ {
		dst[i] = src[2*i]
	}
}

// SumRowsInt8 sums each row of a row-major int8 matrix: sums[r] is the
// int32 sum of the cols codes from x[r*cols], for r < len(sums).
func SumRowsInt8(sums []int32, x []int8, cols int) {
	x = x[:len(sums)*cols]
	if len(x) == 0 {
		clear(sums)
		return
	}
	if sumRowsInt8Accel(sums, x, cols) {
		return
	}
	for r := range sums {
		var sum int32
		for _, v := range x[r*cols:][:cols] {
			sum += int32(v)
		}
		sums[r] = sum
	}
}

// ScaleRowsInt16 multiplies each row of a row-major int16 matrix by its
// own factor into int32: acc[r*cols+i] = int32(f[r]) * int32(x[r*cols+i])
// for r < len(f) — the multiply of the quantized Mul under a [C,1,1]
// operand.
func ScaleRowsInt16(acc []int32, x []int16, f []int16, cols int) {
	n := len(f) * cols
	acc, x = acc[:n], x[:n]
	if n == 0 || scaleRowsInt16Accel(acc, x, f, cols) {
		return
	}
	for r, fr := range f {
		a := acc[r*cols:][:cols]
		for i, v := range x[r*cols:][:cols] {
			a[i] = int32(fr) * int32(v)
		}
	}
}

// LUT8 recodes through a 256-entry byte table: dst[i] = t[int(src[i]) +
// 128] over len(src) elements. dst may be src itself.
func LUT8(dst, src []int8, t *[256]int8) {
	tabs := [1]*[256]int8{t}
	lut8Rows(dst[:len(src)], src, len(src), 1, len(src), tabs[:])
}

// lut8Rows recodes rows rows of cols codes at row stride ld, row r
// through tabs[r]. A nil table skips its row, which only makes sense in
// place: the tile epilogue, the one caller with nil tables, passes dst as
// src.
func lut8Rows(dst, src []int8, ld, rows, cols int, tabs []*[256]int8) {
	if rows == 0 || cols == 0 {
		return
	}
	_, _ = dst[(rows-1)*ld+cols-1], src[(rows-1)*ld+cols-1]
	tabs = tabs[:rows]
	if lut8RowsAccel(dst, src, ld, rows, cols, tabs) {
		return
	}
	for r, t := range tabs {
		if t == nil {
			continue
		}
		d := dst[r*ld:][:cols]
		for i, v := range src[r*ld:][:cols] {
			d[i] = t[int(v)+128]
		}
	}
}

// AccumLUT32 is one operand's pass of the quantized element-wise Add:
// acc[i] = seed + lut[int(src[i])+128] over len(src) elements, where
// seed is the scalar seed, or acc[i] itself when fromAcc is set.
func AccumLUT32(acc []int32, src []int8, lut *[256]int32, seed int32, fromAcc bool) {
	acc = acc[:len(src)]
	for i := accumLUT32Accel(acc, src, lut, seed, fromAcc); i < len(src); i++ {
		s := seed
		if fromAcc {
			s = acc[i]
		}
		acc[i] = s + lut[int(src[i])+128]
	}
}

// NarrowSatInt8 computes dst[i] = ClampInt8(acc[i]) over len(acc)
// elements.
func NarrowSatInt8(dst []int8, acc []int32) {
	dst = dst[:len(acc)]
	for i := narrowSatInt8Accel(dst, acc); i < len(acc); i++ {
		dst[i] = ClampInt8(acc[i])
	}
}
