package inference

import (
	"errors"
	"fmt"

	"vedliot/internal/tensor"
)

// signature is a plan's declared interface and the one I/O boundary
// every executor shares (the FP32 and INT8 engines through their plan,
// the RISC-V backend through QuantPlan.BindIO): inputs are validated
// into FP32 views and a batch size, declared outputs are bound to fresh
// tensors, and fused dispatches are stacked and split. Shapes are per
// sample; the batch dimension arrives with the call.
type signature struct {
	inputNames  []string
	inPer       []tensor.Shape
	outputNames []string
	outPer      []tensor.Shape
	// Declared output i passes the caller's tensor of input outInput[i]
	// through when that is >= 0 (the output value is an input value);
	// otherwise it carries the tensor of declared output outOwner[i],
	// which is i itself unless an earlier declaration names the same
	// value (a name listed twice, or two names one rewrite merged).
	outInput []int
	outOwner []int
}

var errBatch = errors.New("inference: batch must be positive")

// resolve validates an input map against the declared per-sample
// shapes, stores each input's FP32 view in views (one per declared
// input) and returns the call's batch size.
func (s *signature) resolve(inputs map[string]*tensor.Tensor, views [][]float32) (int, error) {
	if len(s.inputNames) == 0 {
		return 0, fmt.Errorf("inference: graph declares no inputs")
	}
	batch := 0
	for i, name := range s.inputNames {
		t, ok := inputs[name]
		if !ok || t == nil {
			return 0, fmt.Errorf("inference: missing input %q", name)
		}
		if len(t.Shape) == 0 {
			return 0, fmt.Errorf("inference: input %q is a scalar, want batched tensor", name)
		}
		if !t.Shape[1:].Equal(s.inPer[i]) {
			return 0, fmt.Errorf("inference: input %q has shape %v, want %v", name, t.Shape,
				append(tensor.Shape{t.Shape[0]}, s.inPer[i]...))
		}
		if i == 0 {
			batch = t.Shape[0]
		} else if t.Shape[0] != batch {
			return 0, fmt.Errorf("inference: input %q has batch %d, want %d", name, t.Shape[0], batch)
		}
		views[i] = f32View(t)
	}
	if batch <= 0 {
		return 0, errBatch
	}
	return batch, nil
}

// f32View returns a tensor's elements as FP32: the tensor's own storage
// when it is FP32 already, a converted copy otherwise.
func f32View(t *tensor.Tensor) []float32 {
	if t.DType == tensor.FP32 {
		return t.F32
	}
	return t.Float32s()
}

// bindOutputs builds the result map of one call. Every declared output
// that owns a tensor gets a fresh one, also stored in outs at its
// position (the other positions stay nil): outputs outlive the call, so
// they never come from pooled memory.
func (s *signature) bindOutputs(inputs map[string]*tensor.Tensor, batch int, outs []*tensor.Tensor) map[string]*tensor.Tensor {
	result := make(map[string]*tensor.Tensor, len(s.outputNames))
	for i, name := range s.outputNames {
		switch {
		case s.outInput[i] >= 0:
			result[name] = inputs[s.inputNames[s.outInput[i]]]
		case s.outOwner[i] == i:
			outs[i] = newBatched(batch, s.outPer[i])
			result[name] = outs[i]
		default:
			result[name] = outs[s.outOwner[i]]
		}
	}
	return result
}

// newBatched allocates a zeroed FP32 tensor of batch samples.
func newBatched(batch int, per tensor.Shape) *tensor.Tensor {
	shape := make(tensor.Shape, 1+len(per))
	shape[0] = batch
	copy(shape[1:], per)
	return &tensor.Tensor{Shape: shape, DType: tensor.FP32, F32: make([]float32, shape.NumElements())}
}

// BindIO is the I/O boundary for backends that execute a QuantPlan
// themselves: it validates inputs exactly as the host engines do and
// returns each declared input's FP32 view, the batch size, the fresh
// FP32 tensor of every declared output that owns one (indexed like
// OutputVals, nil where the output passes an input through or shares an
// earlier output's tensor) and the finished result map. The backend
// fills the tensors in outs; result needs no further work.
func (p *QuantPlan) BindIO(inputs map[string]*tensor.Tensor) (views [][]float32, batch int, outs []*tensor.Tensor, result map[string]*tensor.Tensor, err error) {
	views = make([][]float32, len(p.InputNames))
	if batch, err = p.sig.resolve(inputs, views); err != nil {
		return nil, 0, nil, nil, err
	}
	outs = make([]*tensor.Tensor, len(p.OutputNames))
	return views, batch, outs, p.sig.bindOutputs(inputs, batch, outs), nil
}

// runBatch implements batch fusion over any run that consumes and
// produces FP32 tensors: inputs are stacked along the batch dimension,
// run executes once, and the outputs are split back per request. A
// request the single-request path would reject (a missing or misshapen
// input, a non-positive batch) fails the whole dispatch with the same
// error.
func (s *signature) runBatch(run func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error),
	batches []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {

	if len(batches) == 0 {
		return nil, nil
	}
	if len(batches) == 1 {
		out, err := run(batches[0])
		if err != nil {
			return nil, err
		}
		return []map[string]*tensor.Tensor{out}, nil
	}
	// Per-request batch sizes, from the first declared input.
	sizes := make([]int, len(batches))
	total := 0
	first := s.inputNames[0]
	for r, req := range batches {
		t, ok := req[first]
		if !ok || t == nil || len(t.Shape) == 0 {
			return nil, fmt.Errorf("inference: request %d: missing input %q", r, first)
		}
		if t.Shape[0] <= 0 {
			return nil, errBatch
		}
		sizes[r] = t.Shape[0]
		total += t.Shape[0]
	}
	// Stack every input.
	stacked := make(map[string]*tensor.Tensor, len(s.inputNames))
	for i, name := range s.inputNames {
		perShape := s.inPer[i]
		perElems := perShape.NumElements()
		st := newBatched(total, perShape)
		off := 0
		for r, req := range batches {
			t, ok := req[name]
			if !ok || t == nil {
				return nil, fmt.Errorf("inference: request %d: missing input %q", r, name)
			}
			want := append(tensor.Shape{sizes[r]}, perShape...)
			if !t.Shape.Equal(want) {
				return nil, fmt.Errorf("inference: request %d: input %q has shape %v, want %v", r, name, t.Shape, want)
			}
			copy(st.F32[off:], f32View(t))
			off += sizes[r] * perElems
		}
		stacked[name] = st
	}
	outs, err := run(stacked)
	if err != nil {
		return nil, err
	}
	// Split outputs back per request.
	results := make([]map[string]*tensor.Tensor, len(batches))
	for r := range results {
		results[r] = make(map[string]*tensor.Tensor, len(s.outputNames))
	}
	for i, name := range s.outputNames {
		perShape := s.outPer[i]
		perElems := perShape.NumElements()
		src := outs[name].F32
		off := 0
		for r := range batches {
			part := newBatched(sizes[r], perShape)
			copy(part.F32, src[off:off+sizes[r]*perElems])
			off += sizes[r] * perElems
			results[r][name] = part
		}
	}
	return results, nil
}
