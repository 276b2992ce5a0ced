package tensor

// FP32 kernels of the inference engine's non-GEMM hot loops: the three
// calls of the direct convolution's plane form (copy-in, multi-tap
// accumulation, tile epilogue; the INT8 plane form is the one call of
// ConvPlanesInt8) and the stride-2 im2col gather.
// Every kernel has one portable Go body, which is its definition, and
// on amd64 one AVX2 body. Like the GEMM micro-kernels they follow the
// strict-parity contract: one rounding for a multiply and one for an
// add, never an FMA, so both bodies return the same bits as the scalar
// loops of the interpreter, element by element, including NaN
// propagation and signed zero.

// ConvTapsF32 is the multi-tap plane kernel of the shallow and
// depthwise FP32 convolutions. For every i < len(acc)
//
//	acc[i] = (...((seed + w[0]*x[offs[0]+i]) + w[1]*x[offs[1]+i]) ...)
//
// with every product and every sum rounded once, in tap order, where
// seed is bias, or acc[i] itself when fromAcc is set (the second and
// later input channels of a plane). offs and w have one entry per tap;
// x must hold offs[t]+len(acc) elements for every tap.
func ConvTapsF32(acc, x []float32, offs []int32, w []float32, bias float32, fromAcc bool) {
	w = w[:len(offs)]
	if len(acc) == 0 {
		return
	}
	for _, off := range offs {
		_ = x[int(off)+len(acc)-1] // every tap window lies inside x
	}
	n := convTapsF32Accel(acc, x, offs, w, bias, fromAcc)
	convTapsF32Generic(acc[n:], x[n:], offs, w, bias, fromAcc)
}

func convTapsF32Generic(acc, x []float32, offs []int32, w []float32, bias float32, fromAcc bool) {
	for i := range acc {
		s := bias
		if fromAcc {
			s = acc[i]
		}
		for t, off := range offs {
			s += w[t] * x[int(off)+i]
		}
		acc[i] = s
	}
}

// PadRowsF32 copies a row-major plane into a plane with its own row
// placement: row r (cols values from src[r*cols]) lands at
// dst[rowOff[r]:]. The padded plane form uses it to fill a phase plane
// whose rows are a border apart.
func PadRowsF32(dst []float32, rowOff []int32, src []float32, cols int) {
	src = src[:len(rowOff)*cols]
	for _, off := range rowOff {
		_ = dst[int(off) : int(off)+cols]
	}
	if len(src) == 0 || padRowsF32Accel(dst, rowOff, src, cols) {
		return
	}
	for r, off := range rowOff {
		copy(dst[int(off):][:cols], src[r*cols:])
	}
}

// PadSplit2RowsF32 is the stride-2 form of PadRowsF32: row r's even
// columns land at dst[rowOff[r]+offE:] and its odd columns at
// dst[rowOff[r]+offO:], so a stride-2 convolution reads both column
// phases at unit stride.
func PadSplit2RowsF32(dst []float32, rowOff []int32, offE, offO int, src []float32, cols int) {
	src = src[:len(rowOff)*cols]
	ne, no := (cols+1)/2, cols/2
	lo, hi := min(offE, offO), max(offE+ne, offO+no) // both phases of a row lie in dst[off+lo:off+hi]
	for _, off := range rowOff {
		_ = dst[int(off)+lo : int(off)+hi]
	}
	if len(src) == 0 || padSplit2RowsF32Accel(dst, rowOff, offE, offO, src, cols) {
		return
	}
	for r, off := range rowOff {
		row := src[r*cols:][:cols]
		de, do := dst[int(off)+offE:][:ne], dst[int(off)+offO:][:no]
		for i := range do {
			de[i] = row[2*i]
			do[i] = row[2*i+1]
		}
		if ne > no {
			de[no] = row[2*no]
		}
	}
}

// GatherStride2F32 copies dst[i] = x[2*i] — the stride-2 im2col row
// gather. x must hold at least 2*len(dst)-1 elements.
func GatherStride2F32(dst, x []float32) {
	n := gatherStride2F32Accel(dst, x)
	for i := n; i < len(dst); i++ {
		dst[i] = x[2*i]
	}
}

// Act names the activation tail of EpilogueTileF32.
type Act uint8

// The activations with a vector body. Each is bitwise its scalar
// formula on every lane, NaN, ±0 and ±Inf included: ReLU is
// `if v < 0 { v = 0 }` (NaN and -0 stay), and the hard activations add
// 3, clamp to [0, 6], multiply (h-swish only) and then truly divide by
// 6, each step rounded once.
const (
	ActNone     Act = iota
	ActReLU         // max(v, 0)
	ActHSwish       // v * relu6(v+3) / 6
	ActHSigmoid     // relu6(v+3) / 6
)

// relu6 clamps v to [0, 6]; NaN and -0 fall through both branches.
func relu6(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 6 {
		return 6
	}
	return v
}

// EpilogueTileF32 is the one-pass element-wise tail of a producer: it
// moves a rows x cols tile from src (row stride lds) to dst (row stride
// ldd), applying an optional affine and then act,
//
//	dst[r*ldd+i] = act(src[r*lds+i]*scale[r] + shift[r])
//
// A nil scale skips the affine; scale and shift of one entry apply to
// every row (the rows of one channel's plane), otherwise they hold one
// entry per row (the channels of a GEMM C tile). dst may be src: the
// tile is then rewritten in place. With no affine and ActNone it is a
// strided copy.
func EpilogueTileF32(dst []float32, ldd int, src []float32, lds, rows, cols int, scale, shift []float32, act Act) {
	if rows <= 0 || cols <= 0 {
		return
	}
	// The last row lies inside its slice, and so do the rows before it: a
	// negative stride would start it below zero.
	_, _ = dst[(rows-1)*ldd:(rows-1)*ldd+cols], src[(rows-1)*lds:(rows-1)*lds+cols]
	step := 0 // index step of scale and shift from one row to the next
	if scale != nil {
		if len(scale) > 1 {
			step = 1
		}
		scale, shift = scale[:1+(rows-1)*step], shift[:1+(rows-1)*step]
	}
	if epilogueTileF32Accel(dst, ldd, src, lds, rows, cols, scale, shift, step, act) {
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dst[r*ldd:][:cols], src[r*lds:][:cols]
		var sc, sh float32
		if scale != nil {
			sc, sh = scale[r*step], shift[r*step]
		}
		for i, v := range s {
			if scale != nil {
				v = v*sc + sh
			}
			switch act {
			case ActReLU:
				if v < 0 {
					v = 0
				}
			case ActHSwish:
				v = v * relu6(v+3) / 6
			case ActHSigmoid:
				v = relu6(v+3) / 6
			}
			d[i] = v
		}
	}
}
