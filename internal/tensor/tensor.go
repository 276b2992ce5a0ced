// Package tensor provides dense numeric tensors for the VEDLIoT toolchain.
//
// Tensors are the common currency between the neural-network graph IR
// (internal/nn), the reference interpreter (internal/inference) and the
// optimization passes (internal/optimize). Three storage types are
// supported, mirroring the precisions evaluated in the paper (Fig. 4):
// FP32 (the reference), FP16 (stored as IEEE 754 binary16) and INT8
// (affine-quantized with scale and zero point).
package tensor

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// DType identifies the element type of a tensor.
type DType int

const (
	// FP32 is 32-bit IEEE 754 floating point, the reference precision.
	FP32 DType = iota
	// FP16 is 16-bit IEEE 754 floating point (binary16).
	FP16
	// INT8 is 8-bit affine-quantized integer.
	INT8
)

// String returns the conventional name of the data type.
func (d DType) String() string {
	switch d {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case INT8:
		return "INT8"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// Size returns the storage size of one element in bytes.
func (d DType) Size() int {
	switch d {
	case FP32:
		return 4
	case FP16:
		return 2
	case INT8:
		return 1
	default:
		return 0
	}
}

// ParseDType converts a precision name ("FP32", "fp16", "INT8") to a DType.
func ParseDType(s string) (DType, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "FP32", "FLOAT32", "F32":
		return FP32, nil
	case "FP16", "FLOAT16", "F16":
		return FP16, nil
	case "INT8", "I8":
		return INT8, nil
	}
	return FP32, fmt.Errorf("tensor: unknown dtype %q", s)
}

// Shape describes the extent of each tensor dimension. The canonical
// activation layout used throughout the toolchain is NCHW.
type Shape []int

// NumElements returns the product of all dimensions. An empty shape
// denotes a scalar and has one element.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as, e.g., "[1 3 224 224]".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// QuantParams hold the affine quantization mapping for INT8 tensors:
// real = scale * (q - zero). The JSON form is the unit the calibration
// schema (nn.QuantSchema) persists.
type QuantParams struct {
	Scale float32 `json:"scale"`
	Zero  int32   `json:"zero,omitempty"`
}

// Quantize maps a real value to the nearest representable INT8 code.
func (q QuantParams) Quantize(v float32) int8 {
	if q.Scale == 0 {
		return int8(q.Zero)
	}
	r := math.Round(float64(v)/float64(q.Scale)) + float64(q.Zero)
	if r > 127 {
		r = 127
	}
	if r < -128 {
		r = -128
	}
	return int8(r)
}

// QuantizeTo is Quantize applied to each element of src, written to dst
// (equal lengths): the same division form in float64, rounding half away
// from zero and saturating, bit for bit, in one loop without a call per
// element. It is what builds code tables and quantizes filters, so it is
// not QuantizeSlice: that one multiplies by the reciprocal, and the two
// disagree by one code on half-code boundaries.
func (q QuantParams) QuantizeTo(dst []int8, src []float32) {
	dst = dst[:len(src)]
	if q.Scale == 0 {
		z := int8(q.Zero)
		for i := range dst {
			dst[i] = z
		}
		return
	}
	// Past +-2^40 the sum with any int32 zero point saturates either way,
	// so the quotient is clamped there and rounded in integers: n is its
	// truncation, d the exact fraction in (-1, 1), and the truncation of
	// 2d is +-1 from the half on and 0 before it. That is math.Round
	// without a call or a branch on the fraction.
	const bound = 1 << 40
	scale, zero := float64(q.Scale), int64(q.Zero)
	for i, v := range src {
		x := float64(v) / scale
		if x != x {
			dst[i] = int8(x) // what Quantize's conversion makes of a NaN
			continue
		}
		if x > bound {
			x = bound
		}
		if x < -bound {
			x = -bound
		}
		n := int64(x)
		d := x - float64(n)
		dst[i] = int8(max(min(n+int64(d+d)+zero, 127), -128))
	}
}

// Dequantize maps an INT8 code back to its real value.
func (q QuantParams) Dequantize(v int8) float32 {
	return q.Scale * float32(int32(v)-q.Zero)
}

// Tensor is a dense n-dimensional array. Exactly one of the backing
// slices is non-nil, selected by DType.
type Tensor struct {
	Shape Shape
	DType DType

	F32 []float32
	F16 []uint16
	I8  []int8

	// Quant holds the affine mapping for INT8 tensors; ignored otherwise.
	Quant QuantParams
}

// ErrShape is returned when an operation receives incompatible shapes.
var ErrShape = errors.New("tensor: shape mismatch")

// New allocates a zero-filled tensor with the given type and shape.
func New(dt DType, shape ...int) *Tensor {
	t := &Tensor{Shape: Shape(shape).Clone(), DType: dt}
	n := t.Shape.NumElements()
	switch dt {
	case FP32:
		t.F32 = make([]float32, n)
	case FP16:
		t.F16 = make([]uint16, n)
	case INT8:
		t.I8 = make([]int8, n)
	}
	return t
}

// FromSlice wraps data in an FP32 tensor of the given shape. The slice
// is used directly, not copied. A negative dimension, or a product of
// dimensions past the int range, is refused before the length check, so
// the shape always describes exactly the data it carries.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	s := Shape(shape)
	n := 1
	for _, d := range s {
		if d < 0 || (d > 0 && n > math.MaxInt/d) {
			return nil, fmt.Errorf("%w: shape %v has no element count", ErrShape, s)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d elements for shape %v", ErrShape, len(data), s)
	}
	return &Tensor{Shape: s.Clone(), DType: FP32, F32: data}, nil
}

// MustFromSlice is FromSlice that panics on shape mismatch; intended for
// tests and static model construction.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumElements returns the number of elements.
func (t *Tensor) NumElements() int { return t.Shape.NumElements() }

// SizeBytes returns the storage footprint of the tensor payload.
func (t *Tensor) SizeBytes() int { return t.NumElements() * t.DType.Size() }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: t.Shape.Clone(), DType: t.DType, Quant: t.Quant}
	switch t.DType {
	case FP32:
		c.F32 = append([]float32(nil), t.F32...)
	case FP16:
		c.F16 = append([]uint16(nil), t.F16...)
	case INT8:
		c.I8 = append([]int8(nil), t.I8...)
	}
	return c
}

// F32View returns the elements as FP32: the tensor's own storage when
// it is FP32 already, a converted copy otherwise.
func (t *Tensor) F32View() []float32 {
	if t.DType == FP32 {
		return t.F32
	}
	return t.Float32s()
}

// Len returns the number of elements stored: the length of the one
// backing slice in use.
func (t *Tensor) Len() int { return len(t.F32) + len(t.F16) + len(t.I8) }

// StackRows is the one row stacker of the request path: for each name
// it concatenates the requests' tensors along the leading dimension into
// one fresh FP32 tensor. Under a name the tensors agree in every
// dimension but the first and each backs its shape in full, which is
// what the caller's input check established.
func StackRows(names []string, reqs []map[string]*Tensor) map[string]*Tensor {
	stacked := make(map[string]*Tensor, len(names))
	for _, name := range names {
		rows, elems := 0, 0
		for _, req := range reqs {
			t := req[name]
			rows += t.Shape[0]
			elems += t.Len()
		}
		shape := reqs[0][name].Shape.Clone()
		shape[0] = rows
		data := make([]float32, 0, elems)
		for _, req := range reqs {
			data = append(data, req[name].F32View()...)
		}
		stacked[name] = &Tensor{Shape: shape, DType: FP32, F32: data}
	}
	return stacked
}

// RowViews is the one row splitter: rows [lo, hi) of every FP32 tensor
// of a batched result along its leading dimension, as views (a fresh
// header over the tensor's own storage, no copy). Whoever holds a view
// sees later writes to the batched tensor and keeps all of it alive.
func RowViews(batched map[string]*Tensor, lo, hi int) map[string]*Tensor {
	views := make(map[string]*Tensor, len(batched))
	for name, t := range batched {
		shape := t.Shape.Clone()
		shape[0] = hi - lo
		per := len(t.F32) / t.Shape[0]
		views[name] = &Tensor{Shape: shape, DType: FP32, F32: t.F32[lo*per : hi*per : hi*per]}
	}
	return views
}

// At returns the element at the given multi-dimensional index as float64,
// dequantizing as necessary.
func (t *Tensor) At(idx ...int) float64 {
	off, err := t.offset(idx)
	if err != nil {
		panic(err)
	}
	return t.at(off)
}

// SetAt stores v at the given multi-dimensional index, quantizing as
// necessary.
func (t *Tensor) SetAt(v float64, idx ...int) {
	off, err := t.offset(idx)
	if err != nil {
		panic(err)
	}
	t.set(off, v)
}

func (t *Tensor) offset(idx []int) (int, error) {
	if len(idx) != len(t.Shape) {
		return 0, fmt.Errorf("%w: %d indices for rank %d", ErrShape, len(idx), len(t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			return 0, fmt.Errorf("tensor: index %d out of range for dim %d (size %d)", x, i, t.Shape[i])
		}
		off = off*t.Shape[i] + x
	}
	return off, nil
}

func (t *Tensor) at(off int) float64 {
	switch t.DType {
	case FP32:
		return float64(t.F32[off])
	case FP16:
		return float64(FP16ToFloat(t.F16[off]))
	case INT8:
		return float64(t.Quant.Dequantize(t.I8[off]))
	}
	return 0
}

func (t *Tensor) set(off int, v float64) {
	switch t.DType {
	case FP32:
		t.F32[off] = float32(v)
	case FP16:
		t.F16[off] = FloatToFP16(float32(v))
	case INT8:
		t.I8[off] = t.Quant.Quantize(float32(v))
	}
}

// Float32s returns the tensor contents as a fresh FP32 slice, converting
// from the storage precision as needed.
func (t *Tensor) Float32s() []float32 {
	n := t.NumElements()
	out := make([]float32, n)
	switch t.DType {
	case FP32:
		copy(out, t.F32)
	case FP16:
		for i, h := range t.F16 {
			out[i] = FP16ToFloat(h)
		}
	case INT8:
		for i, q := range t.I8 {
			out[i] = t.Quant.Dequantize(q)
		}
	}
	return out
}

// Convert returns a copy of the tensor in the requested precision. For
// INT8 targets the quantization parameters are chosen symmetric from the
// data range (per-tensor).
func (t *Tensor) Convert(dt DType) *Tensor {
	if dt == t.DType {
		return t.Clone()
	}
	vals := t.Float32s()
	out := New(dt, t.Shape...)
	switch dt {
	case FP32:
		copy(out.F32, vals)
	case FP16:
		for i, v := range vals {
			out.F16[i] = FloatToFP16(v)
		}
	case INT8:
		out.Quant = SymmetricParams(vals)
		for i, v := range vals {
			out.I8[i] = out.Quant.Quantize(v)
		}
	}
	return out
}

// SymmetricParams derives symmetric per-tensor quantization parameters
// (zero point 0) covering the absolute range of vals.
func SymmetricParams(vals []float32) QuantParams {
	var maxAbs float32
	for _, v := range vals {
		a := float32(math.Abs(float64(v)))
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return QuantParams{Scale: 1}
	}
	return QuantParams{Scale: maxAbs / 127}
}

// AffineParams derives asymmetric quantization parameters covering
// [minV, maxV]; the range is widened to include zero so that zero is
// exactly representable (required for zero padding).
func AffineParams(minV, maxV float32) QuantParams {
	if minV > 0 {
		minV = 0
	}
	if maxV < 0 {
		maxV = 0
	}
	if maxV == minV {
		return QuantParams{Scale: 1}
	}
	// Work in float64: the range may overflow float32 (e.g. ±1e38).
	scale := (float64(maxV) - float64(minV)) / 255
	zero := int32(math.Round(-float64(minV)/scale)) - 128
	if zero > 127 {
		zero = 127
	}
	if zero < -128 {
		zero = -128
	}
	return QuantParams{Scale: float32(scale), Zero: zero}
}

// MinMax returns the minimum and maximum element values.
func (t *Tensor) MinMax() (minV, maxV float32) {
	vals := t.Float32s()
	if len(vals) == 0 {
		return 0, 0
	}
	minV, maxV = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV
}

// String summarizes the tensor without dumping its payload.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor{%s %s, %d B}", t.DType, t.Shape, t.SizeBytes())
}
