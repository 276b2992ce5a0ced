package tensor

import (
	"fmt"
	"math"
)

// Scale multiplies every element by k, returning a new FP32 tensor.
func Scale(a *Tensor, k float32) *Tensor {
	av := a.Float32s()
	out := New(FP32, a.Shape...)
	for i, v := range av {
		out.F32[i] = v * k
	}
	return out
}

// ArgMax returns the index of the largest element in a flattened tensor.
func ArgMax(t *Tensor) int {
	vals := t.Float32s()
	if len(vals) == 0 {
		return -1
	}
	best, bi := vals[0], 0
	for i, v := range vals[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Softmax returns the softmax of a rank-1 tensor (numerically stable).
func Softmax(t *Tensor) *Tensor {
	vals := t.Float32s()
	out := New(FP32, t.Shape...)
	if len(vals) == 0 {
		return out
	}
	maxV := vals[0]
	for _, v := range vals[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range vals {
		e := math.Exp(float64(v - maxV))
		out.F32[i] = float32(e)
		sum += e
	}
	for i := range out.F32 {
		out.F32[i] = float32(float64(out.F32[i]) / sum)
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two same-shaped tensors; used to compare precision variants.
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if !a.Shape.Equal(b.Shape) {
		return 0, fmt.Errorf("%w: %v vs %v", ErrShape, a.Shape, b.Shape)
	}
	av, bv := a.Float32s(), b.Float32s()
	var m float64
	for i := range av {
		d := math.Abs(float64(av[i] - bv[i]))
		if math.IsNaN(d) {
			// A NaN on either side is an infinite divergence, not a
			// silently ignored one (NaN comparisons are always false).
			return math.Inf(1), nil
		}
		if d > m {
			m = d
		}
	}
	return m, nil
}
