package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestShapeNumElements(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{2, 3}, 6},
		{Shape{1, 3, 224, 224}, 150528},
	}
	for _, c := range cases {
		if got := c.s.NumElements(); got != c.want {
			t.Errorf("%v.NumElements() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{1, 2, 3}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatalf("clone not equal: %v vs %v", s, c)
	}
	c[0] = 9
	if s[0] == 9 {
		t.Fatal("Clone aliases original")
	}
	if s.Equal(Shape{1, 2}) || s.Equal(Shape{1, 2, 4}) {
		t.Error("Equal accepted mismatched shape")
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 2}).Valid() {
		t.Error("positive shape reported invalid")
	}
	if (Shape{1, 0}).Valid() || (Shape{-1}).Valid() {
		t.Error("non-positive shape reported valid")
	}
}

func TestDTypeStringAndSize(t *testing.T) {
	if FP32.Size() != 4 || FP16.Size() != 2 || INT8.Size() != 1 {
		t.Error("wrong dtype sizes")
	}
	if FP32.String() != "FP32" || FP16.String() != "FP16" || INT8.String() != "INT8" {
		t.Error("wrong dtype names")
	}
}

func TestNewAndIndexing(t *testing.T) {
	a := New(FP32, 2, 3)
	a.F32[1*3+2] = 5
	if got := a.At(1, 2); got != 5 {
		t.Errorf("At(1,2) = %v, want 5", got)
	}
	if got := a.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range index")
		}
	}()
	New(FP32, 2, 2).At(2, 0)
}

func TestFromSlice(t *testing.T) {
	tt, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tt.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %v", tt.At(1, 1))
	}
	if _, err := FromSlice([]float32{1}, 2, 2); err == nil {
		t.Error("FromSlice accepted wrong element count")
	}
	// Shapes whose product the int range cannot hold, or that multiply
	// negative dimensions, match no data: their products wrap or flip
	// sign back to the four elements given.
	four := []float32{1, 2, 3, 4}
	for _, shape := range [][]int{{1<<62 + 1, 4}, {-2, -2}, {-4}, {2, -2, -1}, {1 << 62, 1 << 62, 0}} {
		if _, err := FromSlice(four, shape...); !errors.Is(err, ErrShape) {
			t.Errorf("FromSlice(4 floats, %v) = %v, want ErrShape", shape, err)
		}
	}
	for _, c := range []struct {
		data  []float32
		shape []int
	}{{nil, []int{0, 4}}, {nil, []int{1 << 62, 0}}, {four[:1], nil}} {
		if _, err := FromSlice(c.data, c.shape...); err != nil {
			t.Errorf("FromSlice(%d floats, %v): %v", len(c.data), c.shape, err)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.F32[0] = 99
	if a.F32[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestConvertRoundTripFP16(t *testing.T) {
	a := MustFromSlice([]float32{0, 1, -1, 0.5, 65504, -65504, 0.000061}, 7)
	h := a.Convert(FP16)
	back := h.Convert(FP32)
	for i, want := range a.F32 {
		got := back.F32[i]
		if math.Abs(float64(got-want)) > math.Abs(float64(want))*0.001+1e-7 {
			t.Errorf("fp16 roundtrip[%d] = %v, want ~%v", i, got, want)
		}
	}
}

func TestFP16SpecialValues(t *testing.T) {
	inf := FloatToFP16(float32(math.Inf(1)))
	if FP16ToFloat(inf) != float32(math.Inf(1)) {
		t.Error("+Inf mangled")
	}
	ninf := FloatToFP16(float32(math.Inf(-1)))
	if FP16ToFloat(ninf) != float32(math.Inf(-1)) {
		t.Error("-Inf mangled")
	}
	nan := FloatToFP16(float32(math.NaN()))
	if !math.IsNaN(float64(FP16ToFloat(nan))) {
		t.Error("NaN mangled")
	}
	// Overflow saturates to Inf.
	if FP16ToFloat(FloatToFP16(1e10)) != float32(math.Inf(1)) {
		t.Error("overflow should produce +Inf")
	}
	// Tiny values flush toward signed zero.
	if v := FP16ToFloat(FloatToFP16(1e-20)); v != 0 {
		t.Errorf("underflow = %v, want 0", v)
	}
	if bits := FloatToFP16(float32(math.Copysign(1e-20, -1))); bits != 0x8000 {
		t.Errorf("negative underflow = %#x, want 0x8000", bits)
	}
}

func TestFP16RoundTripProperty(t *testing.T) {
	// Every FP16 value must convert to FP32 and back exactly.
	for h := 0; h < 1<<16; h++ {
		u := uint16(h)
		f := FP16ToFloat(u)
		back := FloatToFP16(f)
		if math.IsNaN(float64(f)) {
			if back&0x7c00 != 0x7c00 || back&0x3ff == 0 {
				t.Fatalf("NaN %#x -> %#x not NaN", u, back)
			}
			continue
		}
		if back != u {
			t.Fatalf("FP16 %#x -> %v -> %#x", u, f, back)
		}
	}
}

// TestFP16RoundTripExact checks every FP16 code bit for bit: widening
// gives exactly the value the code encodes, and narrowing it back
// returns the same code, except that a NaN comes back quieted with its
// payload kept.
func TestFP16RoundTripExact(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		wide := FP16ToFloat(h)
		exp, mant := int(h>>10&0x1f), float64(h&0x3ff)
		var want float64
		switch exp {
		case 0:
			want = math.Ldexp(mant, -24)
		case 31:
			want = math.Inf(1)
		default:
			want = math.Ldexp(1024+mant, exp-25)
		}
		if h&0x8000 != 0 {
			want = -want
		}
		if exp == 31 && mant != 0 {
			if !math.IsNaN(float64(wide)) {
				t.Fatalf("code %#04x widened to %v, want NaN", h, wide)
			}
		} else if float64(wide) != want || math.Signbit(float64(wide)) != math.Signbit(want) {
			t.Fatalf("code %#04x widened to %v, want %v", h, wide, want)
		}
		wantBack := h
		if exp == 31 && mant != 0 {
			wantBack = h | 0x200
		}
		if back := FloatToFP16(wide); back != wantBack {
			t.Fatalf("code %#04x round-tripped to %#04x, want %#04x", h, back, wantBack)
		}
	}
}

func TestFP16ConversionMonotone(t *testing.T) {
	f := func(a float32) bool {
		if math.IsNaN(float64(a)) || math.IsInf(float64(a), 0) {
			return true
		}
		got := FP16ToFloat(FloatToFP16(a))
		// Relative error bounded by 2^-11 for normal range, plus absolute
		// slack for subnormals.
		return math.Abs(float64(got-a)) <= math.Abs(float64(a))/2048+6.0e-5 ||
			math.IsInf(float64(got), 0) && math.Abs(float64(a)) > 65504
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	q := QuantParams{Scale: 0.1, Zero: 3}
	for _, v := range []float32{0, 0.1, -0.5, 1.0, 12.3, -12.7} {
		got := q.Dequantize(q.Quantize(v))
		if math.Abs(float64(got-v)) > 0.05+1e-6 { // half a step
			t.Errorf("quant roundtrip %v -> %v", v, got)
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	q := QuantParams{Scale: 1}
	if q.Quantize(1000) != 127 {
		t.Error("positive overflow should clamp to 127")
	}
	if q.Quantize(-1000) != -128 {
		t.Error("negative overflow should clamp to -128")
	}
}

func TestSymmetricParams(t *testing.T) {
	q := SymmetricParams([]float32{-2, 1, 0.5})
	if q.Zero != 0 {
		t.Errorf("symmetric zero = %d", q.Zero)
	}
	if math.Abs(float64(q.Scale-2.0/127)) > 1e-9 {
		t.Errorf("scale = %v", q.Scale)
	}
	if q2 := SymmetricParams(nil); q2.Scale != 1 {
		t.Errorf("empty scale = %v", q2.Scale)
	}
}

func TestAffineParamsZeroExactlyRepresentable(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		q := AffineParams(lo, hi)
		z := q.Dequantize(q.Quantize(0))
		return math.Abs(float64(z)) <= float64(q.Scale)/2+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantRoundTripProperty(t *testing.T) {
	// Quantize∘Dequantize error is at most half a quantization step.
	f := func(raw []float32) bool {
		vals := make([]float32, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) && math.Abs(float64(v)) < 1e6 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		q := SymmetricParams(vals)
		for _, v := range vals {
			got := q.Dequantize(q.Quantize(v))
			if math.Abs(float64(got-v)) > float64(q.Scale)/2*1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConvertINT8(t *testing.T) {
	a := MustFromSlice([]float32{-1, 0, 0.5, 1}, 4)
	qz := a.Convert(INT8)
	back := qz.Convert(FP32)
	for i := range a.F32 {
		if math.Abs(float64(back.F32[i]-a.F32[i])) > float64(qz.Quant.Scale) {
			t.Errorf("int8 roundtrip[%d]: %v -> %v", i, a.F32[i], back.F32[i])
		}
	}
}

func TestMinMax(t *testing.T) {
	a := MustFromSlice([]float32{3, -7, 2}, 3)
	lo, hi := a.MinMax()
	if lo != -7 || hi != 3 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
}

func TestSizeBytes(t *testing.T) {
	if New(FP32, 10).SizeBytes() != 40 || New(FP16, 10).SizeBytes() != 20 || New(INT8, 10).SizeBytes() != 10 {
		t.Error("wrong SizeBytes")
	}
}

// TestStackRowsRowViews: stacking concatenates the named tensors of
// several requests along the leading dimension, converting storage to
// FP32 on the way, and the row views of the result alias it, one
// member's rows each, without room to grow into the next member's.
func TestStackRowsRowViews(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float32{5, 6}, 1, 2).Convert(FP16)
	stacked := StackRows([]string{"x"}, []map[string]*Tensor{{"x": a, "ignored": a}, {"x": b}})
	x := stacked["x"]
	if len(stacked) != 1 || x.DType != FP32 || !x.Shape.Equal(Shape{3, 2}) {
		t.Fatalf("stacked %v, want one FP32 tensor of shape [3 2]", stacked)
	}
	for i, want := range []float32{1, 2, 3, 4, 5, 6} {
		if x.F32[i] != want {
			t.Fatalf("stacked data %v", x.F32)
		}
	}
	if &x.F32[0] == &a.F32[0] {
		t.Error("the stack aliases a member's storage")
	}
	first, second := RowViews(stacked, 0, 2)["x"], RowViews(stacked, 2, 3)["x"]
	if !first.Shape.Equal(Shape{2, 2}) || !second.Shape.Equal(Shape{1, 2}) || &first.F32[0] != &x.F32[0] || &second.F32[0] != &x.F32[4] {
		t.Errorf("views %v and %v do not alias rows [0,2) and [2,3) of the stack", first, second)
	}
	if _ = append(first.F32, 99); x.F32[4] != 5 {
		t.Error("appending to one member's view wrote into the next member's rows")
	}
}
