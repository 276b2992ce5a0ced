package nn

import (
	"fmt"

	"vedliot/internal/tensor"
)

// shapesAt computes every node's output shape at a batch size without
// writing to the graph: the topological order and a shape per node.
// Activation layout is NCHW; dense layers produce [N, features].
func (g *Graph) shapesAt(batch int) ([]*Node, map[*Node]tensor.Shape, error) {
	if batch <= 0 {
		return nil, nil, fmt.Errorf("nn: batch must be positive, got %d", batch)
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	shapes := make(map[*Node]tensor.Shape, len(order))
	for _, n := range order {
		shape, err := g.inferNode(n, batch, shapes)
		if err != nil {
			return nil, nil, fmt.Errorf("nn: node %q (%s): %w", n.Name, n.Op, err)
		}
		shapes[n] = shape
	}
	return order, shapes, nil
}

func (g *Graph) inferNode(n *Node, batch int, shapes map[*Node]tensor.Shape) (tensor.Shape, error) {
	if n.Op == OpInput {
		if len(n.Attrs.Shape) == 0 {
			return nil, fmt.Errorf("input node needs Attrs.Shape")
		}
		s := append(tensor.Shape{batch}, n.Attrs.Shape...)
		if !s.Valid() {
			return nil, fmt.Errorf("invalid input shape %v", s)
		}
		return s, nil
	}
	ins := make([]tensor.Shape, len(n.Inputs))
	for i, name := range n.Inputs {
		in := g.byName[name]
		if in == nil {
			return nil, fmt.Errorf("unknown input %q", name)
		}
		if len(shapes[in]) == 0 {
			return nil, fmt.Errorf("input %q has no inferred shape", in.Name)
		}
		ins[i] = shapes[in]
	}
	return InferShape(n.Op, n.Attrs, n.Weights, ins)
}

func convOut(in, k, pad, stride int) int {
	return (in+2*pad-k)/stride + 1
}

// InferShape computes the output shape of one operator application from
// its input shapes (batch dimension included) and attributes, validating
// weight shapes when weights are materialized. It is the single shape
// rule shared by Graph.Stats and the lowering IR's shape-inference pass.
// OpInput has no input shapes and is handled by the callers.
func InferShape(op OpType, a Attrs, weights map[string]*tensor.Tensor, ins []tensor.Shape) (tensor.Shape, error) {
	in0 := func() (tensor.Shape, error) {
		if len(ins) == 0 {
			return nil, fmt.Errorf("missing input 0")
		}
		return ins[0], nil
	}
	weight := func(key string) *tensor.Tensor {
		if weights == nil {
			return nil
		}
		return weights[key]
	}
	switch op {
	case OpInput:
		return nil, fmt.Errorf("input node shape comes from Attrs.Shape, not InferShape")

	case OpConv, OpDepthwiseConv:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		if len(in) != 4 {
			return nil, fmt.Errorf("conv wants NCHW input, got %v", in)
		}
		groups := a.Groups
		if groups <= 0 {
			groups = 1
		}
		outC := a.OutC
		if op == OpDepthwiseConv {
			groups = in[1]
			if outC == 0 {
				outC = in[1]
			}
		}
		if outC <= 0 {
			return nil, fmt.Errorf("conv needs OutC")
		}
		if in[1]%groups != 0 || outC%groups != 0 {
			return nil, fmt.Errorf("channels %d/outC %d not divisible by groups %d", in[1], outC, groups)
		}
		if a.KernelH <= 0 || a.KernelW <= 0 || a.StrideH <= 0 || a.StrideW <= 0 {
			return nil, fmt.Errorf("conv needs positive kernel and stride")
		}
		oh := convOut(in[2], a.KernelH, a.PadH, a.StrideH)
		ow := convOut(in[3], a.KernelW, a.PadW, a.StrideW)
		if oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("conv output collapses to %dx%d", oh, ow)
		}
		if w := weight(WeightKey); w != nil {
			want := tensor.Shape{outC, in[1] / groups, a.KernelH, a.KernelW}
			if !w.Shape.Equal(want) {
				return nil, fmt.Errorf("weight shape %v, want %v", w.Shape, want)
			}
		}
		return tensor.Shape{in[0], outC, oh, ow}, nil

	case OpDense:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		if len(in) != 2 {
			return nil, fmt.Errorf("dense wants [N,features] input, got %v (flatten first)", in)
		}
		if a.OutC <= 0 {
			return nil, fmt.Errorf("dense needs OutC")
		}
		if w := weight(WeightKey); w != nil {
			want := tensor.Shape{a.OutC, in[1]}
			if !w.Shape.Equal(want) {
				return nil, fmt.Errorf("weight shape %v, want %v", w.Shape, want)
			}
		}
		return tensor.Shape{in[0], a.OutC}, nil

	case OpBatchNorm:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		if len(in) != 4 {
			return nil, fmt.Errorf("batchnorm wants NCHW, got %v", in)
		}
		return in.Clone(), nil

	case OpReLU, OpReLU6, OpLeakyReLU, OpSigmoid, OpTanh, OpHSwish, OpHSigmoid, OpMish, OpSoftmax, OpIdentity:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		return in.Clone(), nil

	case OpMaxPool, OpAvgPool:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		if len(in) != 4 {
			return nil, fmt.Errorf("pool wants NCHW, got %v", in)
		}
		if a.KernelH <= 0 || a.KernelW <= 0 || a.StrideH <= 0 || a.StrideW <= 0 {
			return nil, fmt.Errorf("pool needs positive kernel and stride")
		}
		oh := convOut(in[2], a.KernelH, a.PadH, a.StrideH)
		ow := convOut(in[3], a.KernelW, a.PadW, a.StrideW)
		if oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("pool output collapses to %dx%d", oh, ow)
		}
		return tensor.Shape{in[0], in[1], oh, ow}, nil

	case OpGlobalAvgPool:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		if len(in) != 4 {
			return nil, fmt.Errorf("global pool wants NCHW, got %v", in)
		}
		return tensor.Shape{in[0], in[1], 1, 1}, nil

	case OpAdd, OpMul:
		if len(ins) < 2 {
			return nil, fmt.Errorf("%s wants >=2 inputs", op)
		}
		first := ins[0]
		for i := 1; i < len(ins); i++ {
			if !ins[i].Equal(first) && !broadcastableChannel(first, ins[i]) {
				return nil, fmt.Errorf("input %d shape %v incompatible with %v", i, ins[i], first)
			}
		}
		return first.Clone(), nil

	case OpConcat:
		if len(ins) < 2 {
			return nil, fmt.Errorf("concat wants >=2 inputs")
		}
		first := ins[0]
		if len(first) != 4 {
			return nil, fmt.Errorf("concat wants NCHW, got %v", first)
		}
		out := first.Clone()
		for i := 1; i < len(ins); i++ {
			s := ins[i]
			if len(s) != 4 || s[0] != first[0] || s[2] != first[2] || s[3] != first[3] {
				return nil, fmt.Errorf("concat input %d shape %v incompatible with %v", i, s, first)
			}
			out[1] += s[1]
		}
		return out, nil

	case OpUpsample:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		if len(in) != 4 {
			return nil, fmt.Errorf("upsample wants NCHW, got %v", in)
		}
		if a.Scale <= 0 {
			return nil, fmt.Errorf("upsample needs positive Scale")
		}
		return tensor.Shape{in[0], in[1], in[2] * a.Scale, in[3] * a.Scale}, nil

	case OpFlatten:
		in, err := in0()
		if err != nil {
			return nil, err
		}
		feat := 1
		for _, d := range in[1:] {
			feat *= d
		}
		return tensor.Shape{in[0], feat}, nil
	}
	return nil, fmt.Errorf("unhandled op %s", op)
}

// broadcastableChannel reports whether b can broadcast onto a as a
// per-channel [N,C,1,1] factor (used by squeeze-excite Mul).
func broadcastableChannel(a, b tensor.Shape) bool {
	return len(a) == 4 && len(b) == 4 &&
		a[0] == b[0] && a[1] == b[1] && b[2] == 1 && b[3] == 1
}
