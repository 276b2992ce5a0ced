// Package inference executes nn graphs on the host CPU.
//
// It is the toolchain's reference runtime: optimization passes
// (internal/optimize) are validated against it, the Kenning-style
// deployment pipeline (internal/kenning) uses it as the "CPU target", and
// accuracy numbers for the compression experiments come from it. Weights
// stored in FP16 or INT8 are dequantized on the fly, so a quantized graph
// runs with exactly the arithmetic a de-quantizing edge runtime would use.
//
// Two execution strategies are provided:
//
//   - Interpreter walks the graph node by node, allocating every
//     activation and dequantizing weights on each call. It is the
//     reference semantics and the baseline in engine benchmarks.
//   - Engine (see Compile) is the compiled execution-plan runtime:
//     kernels are bound and weights dequantized once at compile time,
//     activations live in a liveness-planned arena, and every kernel
//     runs to completion on the calling goroutine. See DESIGN.md.
//
// Compile (FP32) and CompileQuantized (native INT8, see
// quant.go) are thin drivers over one shared lowering pipeline — the
// typed IR and pass manager of internal/inference/ir (shape inference,
// constant folding, identity/dead/CSE elimination, epilogue fusion,
// precision assignment), exposed directly via Lower for -dump-ir style
// tooling — and binders over one plan executor (exec.go): one step
// loop, one pooled per-run state and one I/O boundary (io.go) run every
// plan, whatever its element type.
package inference

import (
	"fmt"
	"math"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Interpreter is the tree-walking reference runtime: no compilation, no
// kernel binding, every activation freshly allocated and every quantized
// weight dequantized at each use. It defines the semantics the compiled
// Engine must reproduce and serves as the baseline in the
// interpreter-vs-engine benchmarks.
type Interpreter struct {
	graph *nn.Graph
	order []*nn.Node
	// inPer is each declared input's per-sample shape, what CheckInputs
	// judges a run's inputs by.
	inPer []tensor.Shape
}

// NewInterpreter prepares an interpreter; the graph must validate.
func NewInterpreter(g *nn.Graph) (*Interpreter, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	r := &Interpreter{graph: g, order: order}
	for _, name := range g.Inputs {
		n := g.Node(name)
		if n == nil {
			return nil, fmt.Errorf("inference: graph %q missing input node %q", g.Name, name)
		}
		r.inPer = append(r.inPer, tensor.Shape(n.Attrs.Shape))
	}
	return r, nil
}

// Run executes the graph on the given inputs (keyed by input-node name)
// and returns the declared outputs. All tensors are FP32.
func (r *Interpreter) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	acts, err := r.RunAll(inputs)
	if err != nil {
		return nil, err
	}
	outs := make(map[string]*tensor.Tensor, len(r.graph.Outputs))
	for _, name := range r.graph.Outputs {
		o := acts[name]
		if o == nil {
			return nil, fmt.Errorf("inference: output %q was not produced", name)
		}
		outs[name] = o
	}
	return outs, nil
}

// RunAll executes the graph and returns every node's activation, keyed by
// node name. The inputs must pass CheckInputs against the declared
// inputs, as for every executor.
func (r *Interpreter) RunAll(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	if _, err := CheckInputs(r.graph.Inputs, r.inPer, inputs); err != nil {
		return nil, err
	}
	acts := make(map[string]*tensor.Tensor, len(r.order))
	for _, name := range r.graph.Inputs {
		acts[name] = inputs[name]
	}
	for _, n := range r.order {
		if n.Op == nn.OpInput {
			continue
		}
		out, err := r.exec(n, acts)
		if err != nil {
			return nil, fmt.Errorf("inference: node %q (%s): %w", n.Name, n.Op, err)
		}
		acts[n.Name] = out
	}
	return acts, nil
}

// RunSingle is a convenience wrapper for graphs with exactly one input
// and one output.
func (r *Interpreter) RunSingle(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(r.graph.Inputs) != 1 || len(r.graph.Outputs) != 1 {
		return nil, fmt.Errorf("inference: RunSingle wants 1 input/1 output, graph has %d/%d",
			len(r.graph.Inputs), len(r.graph.Outputs))
	}
	outs, err := r.Run(map[string]*tensor.Tensor{r.graph.Inputs[0]: in})
	if err != nil {
		return nil, err
	}
	return outs[r.graph.Outputs[0]], nil
}

func (r *Interpreter) exec(n *nn.Node, acts map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	get := func(i int) (*tensor.Tensor, error) {
		if i >= len(n.Inputs) {
			return nil, fmt.Errorf("missing input %d", i)
		}
		t := acts[n.Inputs[i]]
		if t == nil {
			return nil, fmt.Errorf("input %q not yet computed", n.Inputs[i])
		}
		return t, nil
	}
	x, err := get(0)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case nn.OpConv, nn.OpDepthwiseConv:
		return conv2d(n, x)
	case nn.OpDense:
		return dense(n, x)
	case nn.OpBatchNorm:
		return batchNorm(n, x)
	case nn.OpReLU:
		return mapElem(x, func(v float32) float32 {
			if v < 0 {
				return 0
			}
			return v
		}), nil
	case nn.OpReLU6:
		return mapElem(x, func(v float32) float32 {
			if v < 0 {
				return 0
			}
			if v > 6 {
				return 6
			}
			return v
		}), nil
	case nn.OpLeakyReLU:
		alpha := n.Attrs.Alpha
		if alpha == 0 {
			alpha = 0.1
		}
		return mapElem(x, func(v float32) float32 {
			if v < 0 {
				return alpha * v
			}
			return v
		}), nil
	case nn.OpSigmoid:
		return mapElem(x, sigmoid), nil
	case nn.OpTanh:
		return mapElem(x, func(v float32) float32 { return float32(math.Tanh(float64(v))) }), nil
	case nn.OpHSwish:
		return mapElem(x, func(v float32) float32 { return v * relu6(v+3) / 6 }), nil
	case nn.OpHSigmoid:
		return mapElem(x, func(v float32) float32 { return relu6(v+3) / 6 }), nil
	case nn.OpMish:
		return mapElem(x, func(v float32) float32 {
			sp := math.Log1p(math.Exp(float64(v))) // softplus
			return float32(float64(v) * math.Tanh(sp))
		}), nil
	case nn.OpMaxPool:
		return pool(n, x, true)
	case nn.OpAvgPool:
		return pool(n, x, false)
	case nn.OpGlobalAvgPool:
		return globalAvgPool(x)
	case nn.OpAdd, nn.OpMul:
		out := x.Convert(tensor.FP32)
		for i := 1; i < len(n.Inputs); i++ {
			y, err := get(i)
			if err != nil {
				return nil, err
			}
			if err := accumulate(out, y, n.Op == nn.OpMul); err != nil {
				return nil, err
			}
		}
		return out, nil
	case nn.OpConcat:
		ts := make([]*tensor.Tensor, len(n.Inputs))
		for i := range n.Inputs {
			if ts[i], err = get(i); err != nil {
				return nil, err
			}
		}
		return concatChannels(ts)
	case nn.OpUpsample:
		return upsample(x, n.Attrs.Scale)
	case nn.OpSoftmax:
		return softmaxRows(x)
	case nn.OpFlatten:
		flat := x.Convert(tensor.FP32)
		feat := 1
		for _, d := range x.Shape[1:] {
			feat *= d
		}
		flat.Shape = tensor.Shape{x.Shape[0], feat}
		return flat, nil
	case nn.OpIdentity:
		return x.Convert(tensor.FP32), nil
	}
	return nil, fmt.Errorf("unsupported op %s", n.Op)
}

func relu6(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 6 {
		return 6
	}
	return v
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

func mapElem(x *tensor.Tensor, f func(float32) float32) *tensor.Tensor {
	vals := x.Float32s()
	out := tensor.New(tensor.FP32, x.Shape...)
	for i, v := range vals {
		out.F32[i] = f(v)
	}
	return out
}
