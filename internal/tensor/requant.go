package tensor

// RequantRows is the per-row requantizers of a layer's output rows, with
// whether the vector bodies can run them decided once, when the layer
// binds: the vector bodies need every row's mantissa in 32 bits and its
// shift below 64 (true for every real layer-scale ratio; NewRequant's
// robustness paths can exceed them).
type RequantRows struct {
	req []Requant
	vec bool
}

// NewRequantRows checks req against the vector bodies' range.
func NewRequantRows(req []Requant) RequantRows {
	return RequantRows{req: req, vec: requantVectorOK(req)}
}

// Slice returns rows lo..hi-1. They keep the whole set's decision, so a
// layer with one row outside the vector range runs every tile on the
// scalar loop, which computes the same bits.
func (r RequantRows) Slice(lo, hi int) RequantRows {
	return RequantRows{req: r.req[lo:hi], vec: r.vec}
}

// RequantTileInt8 is the requantising epilogue of the integer
// convolutions: one call turns rows x cols of an int32 C tile (row
// stride ldc) into int8 rows of dst (row stride ldd),
//
//	dst[i*ldd+j] = ClampInt8(zp + req[i].Apply(c[i*ldc+j]))
//
// with one Requant per row (the first rows of req), and then recodes row
// i through post[i] when post is non-nil (a nil entry leaves its row
// alone) — the fused activation table of the producer. The vector bodies
// reproduce Apply and ClampInt8 bit for bit; a set of rows outside their
// range (RequantRows) takes the scalar loop whole. The AVX-512 body
// applies the tables in the same pass on a VBMI host; elsewhere they are
// one lut8Rows pass over the tile.
func RequantTileInt8(dst []int8, ldd int, c []int32, ldc, rows, cols int, rr RequantRows, zp int32, post []*[256]int8) {
	if rows == 0 || cols == 0 {
		return
	}
	req := rr.req[:rows]
	_, _ = dst[(rows-1)*ldd+cols-1], c[(rows-1)*ldc+cols-1]
	if post != nil {
		post = post[:rows]
	}
	done, recoded := 0, false
	if rr.vec {
		done, recoded = requantTileInt8Accel(dst, ldd, c, ldc, rows, cols, req, zp, post)
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
		from := 0
		if recoded {
			from = done // the vector body recoded its columns
		}
		if from < cols {
			lut8Rows(dst[from:], dst[from:], ldd, rows, cols-from, post)
		}
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
