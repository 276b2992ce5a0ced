// Package ir is the shared lowering intermediate representation of the
// inference compilers: a typed, SSA-ish program built from an nn.Graph
// plus one fixed list of steps (Lower) that rewrites it before kernel
// binding.
//
// Both inference.Compile (FP32) and inference.CompileQuantized (native
// INT8) call the same Lower — shape inference, identity and dead-node
// elimination, common-subexpression elimination, constant folding,
// producer+activation fusion and precision assignment — so every graph
// rewrite lands once and retargets every backend, the role the paper's
// common toolchain plays across heterogeneous accelerators. The module
// is deterministic end to end (nn.Graph.TopoSort orders by structure,
// never insertion order), which makes the textual Dump byte-stable and
// golden-testable pass by pass.
package ir

import (
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Precision is a value's storage precision in the lowered plan.
type Precision uint8

const (
	// FP32 stores the value as float32 (the default plan).
	FP32 Precision = iota
	// INT8 stores the value as an int8 code under Value.QP.
	INT8
)

// String returns the dump spelling of the precision.
func (p Precision) String() string {
	if p == INT8 {
		return "i8"
	}
	return "f32"
}

// Value is one SSA-ish value: a graph input or the output of exactly
// one op. Shapes are per sample; the batch dimension stays dynamic and
// scales every buffer uniformly at run time.
type Value struct {
	ID   int
	Name string
	// Shape is the per-sample shape, set by the shape-inference pass.
	Shape tensor.Shape
	Elems int
	// Prec and QP are set by the precision-assignment pass.
	Prec Precision
	QP   tensor.QuantParams
}

// FusedOp is one stage of a producer's fused epilogue: an element-wise
// activation or a (folded) batch normalization absorbed into the
// producing kernel by the fusion pass. Each stage consumes the value
// named by Pre (the producer's output for the first stage, the previous
// stage's output after) and its own output is the next stage's Pre — or
// the op's final Out for the last stage. The intermediate values stop
// materializing in the fused plan but keep carrying the stagewise
// quantization mappings for INT8 lowering, and debug executions
// (Engine.RunAll) still expand and materialize them.
type FusedOp struct {
	// Name is the absorbed node's name.
	Name string
	// Kind is the absorbed operator (an activation or OpBatchNorm).
	Kind nn.OpType
	// Attrs carries the absorbed node's attributes (LeakyReLU alpha,
	// batch-norm epsilon).
	Attrs nn.Attrs
	// Weights references the absorbed node's weights (batch-norm folded
	// scale/shift plus statistics); nil for activations.
	Weights map[string]*tensor.Tensor
	// Pre is the value this stage consumes.
	Pre int
}

// Op is one operator application. Input ops appear in the op list too
// (with no inputs); backends skip them when binding kernels.
type Op struct {
	// Name is the originating graph node's name.
	Name  string
	Kind  nn.OpType
	Ins   []int
	Out   int
	Attrs nn.Attrs
	// Weights is the op's private weight map: it starts as a shallow
	// copy of the graph node's map (sharing tensors), so passes may fold
	// new entries in without mutating the caller's graph.
	Weights map[string]*tensor.Tensor
	// Fused is the epilogue chain absorbed by the fusion pass (batch
	// norm and activations applied per element at the output write),
	// empty when unfused.
	Fused []FusedOp
	// Island marks an op without a native integer lowering in a
	// quantized module: it executes as a dequantize→FP32→requantize
	// island.
	Island bool
}

// Weight returns the named weight tensor or nil.
func (o *Op) Weight(key string) *tensor.Tensor {
	if o.Weights == nil {
		return nil
	}
	return o.Weights[key]
}

// Output is one declared module output: a name (graph output name) and
// the value it resolves to after rewrites.
type Output struct {
	Name  string
	Value int
}

// Module is the lowered program: values and ops in deterministic
// topological order, plus the declared interface and the rewrite
// residue (aliases of eliminated values).
type Module struct {
	Name string
	// Quantized reports that precision assignment ran with a schema:
	// every value carries an INT8 mapping and ops may be islands.
	Quantized bool
	Values    []*Value
	Ops       []*Op
	// Inputs are the declared input value ids, in graph declaration
	// order.
	Inputs []int
	// Outputs are the declared outputs, in graph declaration order.
	Outputs []Output
	// Aliases maps the name of a value eliminated by a rewrite
	// (identity elimination, CSE) to the surviving value id. Debug
	// executions report aliased activations under both names.
	Aliases map[string]int
	// Islands counts ops marked as FP32 islands by precision
	// assignment.
	Islands int
}

// FromGraph builds the initial module: one value per graph node, one op
// per node, in the graph's deterministic topological order. The graph
// is validated; weights are referenced, never copied, and the module
// never mutates the graph.
func FromGraph(g *nn.Graph) (*Module, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: g.Name, Aliases: make(map[string]int)}
	id := make(map[string]int, len(order))
	for _, n := range order {
		v := &Value{ID: len(m.Values), Name: n.Name}
		m.Values = append(m.Values, v)
		id[n.Name] = v.ID
		op := &Op{Name: n.Name, Kind: n.Op, Out: v.ID, Attrs: n.Attrs}
		if len(n.Inputs) > 0 {
			op.Ins = make([]int, len(n.Inputs))
			for i, in := range n.Inputs {
				op.Ins[i] = id[in]
			}
		}
		if n.Weights != nil {
			op.Weights = make(map[string]*tensor.Tensor, len(n.Weights))
			for k, w := range n.Weights {
				op.Weights[k] = w
			}
		}
		m.Ops = append(m.Ops, op)
	}
	for _, name := range g.Inputs {
		m.Inputs = append(m.Inputs, id[name])
	}
	for _, name := range g.Outputs {
		m.Outputs = append(m.Outputs, Output{Name: name, Value: id[name]})
	}
	return m, nil
}

// consumers returns, per value id, the ops reading it (fused
// pre-values are not reads).
func (m *Module) consumers() map[int][]*Op {
	c := make(map[int][]*Op)
	for _, op := range m.Ops {
		for _, in := range op.Ins {
			c[in] = append(c[in], op)
		}
	}
	return c
}

// isOutputValue reports whether value id is a declared output.
func (m *Module) isOutputValue(id int) bool {
	for _, o := range m.Outputs {
		if o.Value == id {
			return true
		}
	}
	return false
}

// rewireValue makes every op input and declared output referencing
// `from` reference `to` instead.
func (m *Module) rewireValue(from, to int) {
	for _, op := range m.Ops {
		for i, in := range op.Ins {
			if in == from {
				op.Ins[i] = to
			}
		}
	}
	for i := range m.Outputs {
		if m.Outputs[i].Value == from {
			m.Outputs[i].Value = to
		}
	}
	// Aliases already pointing at the vanished value chase the new one.
	for name, v := range m.Aliases {
		if v == from {
			m.Aliases[name] = to
		}
	}
}

// removeOps drops the given ops (by identity) from the op list.
func (m *Module) removeOps(drop map[*Op]bool) {
	if len(drop) == 0 {
		return
	}
	kept := m.Ops[:0]
	for _, op := range m.Ops {
		if !drop[op] {
			kept = append(kept, op)
		}
	}
	m.Ops = kept
}

// Live reports the value ids referenced by the lowered plan: inputs,
// outputs, op operands and results, and fused pre-values. Values
// eliminated by rewrites are absent.
func (m *Module) Live() map[int]bool {
	live := make(map[int]bool, len(m.Values))
	for _, v := range m.Inputs {
		live[v] = true
	}
	for _, o := range m.Outputs {
		live[o.Value] = true
	}
	for _, op := range m.Ops {
		live[op.Out] = true
		for _, in := range op.Ins {
			live[in] = true
		}
		for _, f := range op.Fused {
			live[f.Pre] = true
		}
	}
	return live
}

// FusedOut returns the value written by fused stage i of op: the next
// stage's Pre, or the op's Out for the last stage.
func (o *Op) FusedOut(i int) int {
	if i+1 < len(o.Fused) {
		return o.Fused[i+1].Pre
	}
	return o.Out
}

// IsActivation reports element-wise activation operators — the set the
// fusion pass may absorb into a preceding producer.
func IsActivation(op nn.OpType) bool {
	switch op {
	case nn.OpReLU, nn.OpReLU6, nn.OpLeakyReLU, nn.OpSigmoid, nn.OpTanh,
		nn.OpHSwish, nn.OpHSigmoid, nn.OpMish:
		return true
	}
	return false
}

// IsFusableProducer reports ops whose kernels can absorb a following
// epilogue chain: the matrix producers and batch-norm apply it per
// element during the output write (FP32) or compose it into per-channel
// requantization lookups (INT8).
func IsFusableProducer(op nn.OpType) bool {
	switch op {
	case nn.OpConv, nn.OpDepthwiseConv, nn.OpDense, nn.OpBatchNorm:
		return true
	}
	return false
}

// IsFusableStage reports ops a fused epilogue may absorb: element-wise
// activations and (folded) batch normalization, both per-channel
// element-wise maps over an unchanged shape.
func IsFusableStage(op nn.OpType) bool {
	return IsActivation(op) || op == nn.OpBatchNorm
}
