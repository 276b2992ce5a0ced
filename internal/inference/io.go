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

// ErrBadInput marks an input map the model's declared signature
// refuses: every refusal of CheckInputs wraps it, so a serving layer can
// tell a request that is wrong from an engine that failed.
var ErrBadInput = errors.New("inference: bad input")

var errBatch = fmt.Errorf("%w: batch must be positive", ErrBadInput)

// CheckInputs is the one judge of an input map against a model's
// declared inputs (names and per-sample shapes, index for index): every
// declared name is present as a tensor whose trailing dimensions equal
// the declared shape, all share one leading dimension of at least one
// row, and each backs exactly rows x per-sample elements. It returns the
// rows. Undeclared entries are ignored, and any dtype passes: what runs
// the request converts to FP32 on entry. The engines, RunBatch, the
// fleet's admission and the front door's batcher all ask here, so they
// cannot disagree on what a request carries.
func CheckInputs(names []string, per []tensor.Shape, inputs map[string]*tensor.Tensor) (rows int, err error) {
	if len(names) == 0 {
		return 0, fmt.Errorf("inference: graph declares no inputs")
	}
	for i, name := range names {
		t := inputs[name]
		switch {
		case t == nil:
			return 0, fmt.Errorf("%w: missing input %q", ErrBadInput, name)
		case len(t.Shape) == 0:
			return 0, fmt.Errorf("%w: input %q is a scalar, want batched tensor", ErrBadInput, name)
		case !t.Shape[1:].Equal(per[i]):
			return 0, fmt.Errorf("%w: input %q has shape %v, want %v per sample", ErrBadInput, name, t.Shape, per[i])
		case i > 0 && t.Shape[0] != rows:
			return 0, fmt.Errorf("%w: input %q has batch %d, want %d", ErrBadInput, name, t.Shape[0], rows)
		case t.Shape[0] <= 0:
			return 0, errBatch
		// Rows past the backing length cannot be backed, and below it the
		// product with the model's own per-sample size cannot overflow.
		case t.Shape[0] > t.Len() || t.Shape[0]*per[i].NumElements() != t.Len():
			return 0, fmt.Errorf("%w: input %q has shape %v but backs %d elements", ErrBadInput, name, t.Shape, t.Len())
		}
		rows = t.Shape[0]
	}
	return rows, nil
}

// resolve validates an input map (CheckInputs), stores each declared
// input's FP32 view in views and returns the call's batch size.
func (s *signature) resolve(inputs map[string]*tensor.Tensor, views [][]float32) (int, error) {
	batch, err := CheckInputs(s.inputNames, s.inPer, inputs)
	if err != nil {
		return 0, err
	}
	for i, name := range s.inputNames {
		views[i] = inputs[name].F32View()
	}
	return batch, nil
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
// produces FP32 tensors: the requests' inputs are stacked along the
// batch dimension, run executes once, and each request's result is a row
// view of the batched outputs (fresh per call, see bindOutputs). A
// request the single-request path would reject fails the whole dispatch
// with the same error. A lone request goes to run as the caller's own
// map.
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
	sizes := make([]int, len(batches))
	for r, req := range batches {
		var err error
		if sizes[r], err = CheckInputs(s.inputNames, s.inPer, req); err != nil {
			return nil, fmt.Errorf("inference: request %d: %w", r, err)
		}
	}
	outs, err := run(tensor.StackRows(s.inputNames, batches))
	if err != nil {
		return nil, err
	}
	results := make([]map[string]*tensor.Tensor, len(batches))
	row := 0
	for r, n := range sizes {
		results[r] = tensor.RowViews(outs, row, row+n)
		row += n
	}
	return results, nil
}
