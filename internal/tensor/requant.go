package tensor

// RequantTileInt8 is the requantising epilogue of the integer
// convolutions: one call turns rows x cols of an int32 C tile (row
// stride ldc) into int8 rows of dst (row stride ldd),
//
//	dst[i*ldd+j] = ClampInt8(zp + req[i].Apply(c[i*ldc+j]))
//
// with one Requant per row, and then recodes row i through post[i] when
// post is non-nil (a nil entry leaves its row alone) — the fused
// activation table of the producer. A depthwise plane is a one-row tile.
// The vector bodies reproduce Apply and ClampInt8 bit for bit; they need
// every row's mantissa in 32 bits and its shift below 64 (true for every
// real layer-scale ratio; NewRequant's robustness paths can exceed
// them), and a tile with a row outside that takes the scalar loop whole.
func RequantTileInt8(dst []int8, ldd int, c []int32, ldc, rows, cols int, req []Requant, zp int32, post []*[256]int8) {
	if rows == 0 || cols == 0 {
		return
	}
	req = req[:rows]
	_, _ = dst[(rows-1)*ldd+cols-1], c[(rows-1)*ldc+cols-1]
	done := 0
	if requantVectorOK(req) {
		done = requantTileInt8Accel(dst, ldd, c, ldc, rows, cols, req, zp)
	}
	if done < cols {
		for i, r := range req {
			out, acc := dst[i*ldd:][:cols], c[i*ldc:][:cols]
			for j := done; j < cols; j++ {
				out[j] = ClampInt8(zp + r.Apply(acc[j]))
			}
		}
	}
	if post != nil {
		lut8Rows(dst, dst, ldd, rows, cols, post)
	}
}

// requantVectorOK reports whether every row fits the vector bodies'
// 32-bit mantissa and 6-bit shift.
func requantVectorOK(req []Requant) bool {
	for i := range req {
		if req[i].mult >= 1<<31 || req[i].shift > 63 {
			return false
		}
	}
	return true
}

// RequantInt8 requantizes one int32 accumulator row into int8 codes:
// out[i] = ClampInt8(zp + r.Apply(acc[i])), a one-row RequantTileInt8.
func RequantInt8(out []int8, acc []int32, r Requant, zp int32) {
	req := [1]Requant{r}
	RequantTileInt8(out, len(acc), acc, len(acc), 1, len(acc), req[:], zp, nil)
}
