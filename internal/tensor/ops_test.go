package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScale(t *testing.T) {
	a := MustFromSlice([]float32{1, -2}, 2)
	s := Scale(a, 3)
	if s.F32[0] != 3 || s.F32[1] != -6 {
		t.Errorf("Scale = %v", s.F32)
	}
}

func TestArgMax(t *testing.T) {
	a := MustFromSlice([]float32{0.1, 0.9, 0.3}, 3)
	if ArgMax(a) != 1 {
		t.Errorf("ArgMax = %d", ArgMax(a))
	}
	if ArgMax(New(FP32)) == -1 { // scalar has one element at index 0
		t.Error("scalar ArgMax should be 0")
	}
	empty := &Tensor{Shape: Shape{0}, DType: FP32}
	if ArgMax(empty) != -1 {
		t.Error("empty ArgMax should be -1")
	}
}

func TestSoftmax(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	s := Softmax(a)
	var sum float64
	for _, v := range s.F32 {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(s.F32[2] > s.F32[1] && s.F32[1] > s.F32[0]) {
		t.Errorf("softmax not order-preserving: %v", s.F32)
	}
	// Large inputs must not overflow.
	big := MustFromSlice([]float32{1000, 1001}, 2)
	sb := Softmax(big)
	if math.IsNaN(float64(sb.F32[0])) || math.IsInf(float64(sb.F32[1]), 0) {
		t.Errorf("softmax unstable: %v", sb.F32)
	}
}

func TestSoftmaxSumProperty(t *testing.T) {
	f := func(raw []float32) bool {
		vals := make([]float32, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := Softmax(MustFromSlice(vals, len(vals)))
		var sum float64
		for _, v := range s.F32 {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiffAndMSE(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := MustFromSlice([]float32{1, 4, 2}, 3)
	d, err := MaxAbsDiff(a, b)
	if err != nil || d != 2 {
		t.Errorf("MaxAbsDiff = %v, %v", d, err)
	}
	if _, err := MaxAbsDiff(a, MustFromSlice([]float32{1}, 1)); err == nil {
		t.Error("MaxAbsDiff accepted shape mismatch")
	}
}
