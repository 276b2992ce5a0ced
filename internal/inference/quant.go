package inference

import (
	"errors"
	"fmt"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// ErrNotQuantizable reports that a graph cannot be lowered to the
// integer plan — no calibration schema, a schema that does not cover
// every value, or a model without materialized weights. Backends treat
// it as the signal to fall back to the FP32 engine.
var ErrNotQuantizable = errors.New("inference: graph not quantizable")

// QuantEngine is the native INT8 execution plan: the same topo-sorted
// step list, liveness-planned arena, pooled run state and step loop
// as the FP32 Engine (the shared plan executor, exec.go), but every
// activation is stored as an int8 code under the calibration schema's
// affine mapping. Inputs are quantized once at graph entry, conv/dense
// run with int32 accumulators and fixed-point requantization between
// layers, element-wise ops run through precomputed int8 lookup tables,
// and values are dequantized only at declared outputs. The arena
// therefore holds one byte per activation element instead of four — the
// ~4x working-set reduction INT8-only edge accelerators (EdgeTPU class)
// get from native quantized execution.
//
// Engines are immutable after CompileQuantized and safe for concurrent
// Run calls: per-call state comes from the plan's pool.
type QuantEngine struct {
	plan[int8]

	// fallbacks counts steps executed through the dequantize→FP32
	// kernel→requantize wrapper (ops without an integer lowering).
	fallbacks int
}

var _ Executable = (*QuantEngine)(nil)

// QuantizedBackend is the host-CPU backend for the integer plan:
// Compile produces a *QuantEngine under the given calibration schema,
// falling back to the FP32 engine when the graph cannot be lowered
// (ErrNotQuantizable), so callers always get a runnable executable.
type QuantizedBackend struct {
	// Schema is the calibration artifact (optimize.Calibrate).
	Schema *nn.QuantSchema
}

// Name implements Backend.
func (QuantizedBackend) Name() string { return "cpu-engine-int8" }

// Compile implements Backend.
func (b QuantizedBackend) Compile(g *nn.Graph) (Executable, error) {
	q, err := CompileQuantized(g, b.Schema)
	if err == nil {
		return q, nil
	}
	if errors.Is(err, ErrNotQuantizable) {
		return Compile(g)
	}
	return nil, err
}

var _ Backend = QuantizedBackend{}

// ArenaBytesPerSample returns the activation arena footprint in bytes
// per batch sample — int8 codes, so one quarter of the FP32 engine's
// ArenaFloatsPerSample()*4 on the same plan.
func (e *QuantEngine) ArenaBytesPerSample() int { return e.arenaPerSample }

// FallbackSteps returns how many plan steps execute through the FP32
// fallback wrapper rather than a native integer kernel.
func (e *QuantEngine) FallbackSteps() int { return e.fallbacks }

// CompileQuantized lowers a graph into the native INT8 execution plan
// under the calibration schema, through the same shared lowering
// pipeline as Compile (see Lower and the ir package): one deterministic
// topo-sort, one shape-inference pass, the same rewrites (constant
// folding, identity/dead elimination, CSE, activation fusion) plus
// precision assignment, which stamps every value's INT8 mapping and
// marks ops without an integer lowering as FP32 islands. The integer
// lowering (lowerQuantOp) then quantizes weights to int8 (per output
// channel, symmetric), folds biases into int32 and precomputes the
// fixed-point requantization multipliers between layers, and the host
// binders turn each step into a kernel; islands run through a
// dequantize→FP32 kernel→requantize wrapper, so coverage is total once
// the schema covers the lowered module.
//
// Returns ErrNotQuantizable (wrapped) when the schema is nil or does
// not cover every lowered value, or when the model has no materialized
// weights; callers that want transparent degradation use
// QuantizedBackend, which falls back to the FP32 engine.
func CompileQuantized(g *nn.Graph, schema *nn.QuantSchema) (*QuantEngine, error) {
	m, err := lowerQuantized(g, schema)
	if err != nil {
		return nil, err
	}
	return newQuantEngine(m)
}

// lowerQuantized runs the shared pipeline under a calibration schema —
// the front half of both CompileQuantized and BuildQuantPlan.
func lowerQuantized(g *nn.Graph, schema *nn.QuantSchema) (*ir.Module, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: nil quant schema", ErrNotQuantizable)
	}
	m, _, err := ir.Lower(g, schema, false)
	if errors.Is(err, ir.ErrSchemaGap) {
		return nil, fmt.Errorf("%w: %v", ErrNotQuantizable, err)
	}
	return m, err
}

// newQuantEngine lowers each op of an INT8 module once and binds its
// step to an integer kernel, the ops spread over the host's cores
// (lowerEach), then plans the (one byte per element) arena. Each step is dropped
// after binding: the engine keeps the packed operands its kernels made,
// not the plan's int8 weight codes.
func newQuantEngine(m *ir.Module) (*QuantEngine, error) {
	e := &QuantEngine{plan: plan[int8]{scaffold: buildScaffold(m), enter: quantizeInputs, exit: dequantizeOutputs}}
	ops := stepOps(m)
	e.steps = make([]step[int8], len(ops))
	specs := make([]scratchSpec, len(ops))
	islands := make([]bool, len(ops))
	err := lowerEach(len(ops), func(i int) error {
		var st QuantStep
		if err := lowerQuantStep(&st, m, &e.scaffold, ops[i]); err != nil {
			return err
		}
		kern, spec := bindQuantStep(&st, e.vals[st.Out].elems)
		e.steps[i] = step[int8]{name: st.Name, op: st.Op, out: st.Out, ins: st.Ins, kern: kern}
		specs[i], islands[i] = spec, st.Island != nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range ops {
		e.scratch.grow(specs[i])
		if islands[i] {
			e.fallbacks++
		}
	}
	e.layout()
	// The entry-quantized inputs and the declared outputs' codes are
	// per-run state too: they sit in the slab behind the planned arena.
	for v := range e.vals {
		if kind := e.vals[v].loc.kind; kind == locInput || kind == locOutput {
			e.off[v] = e.slabPerSample
			e.slabPerSample += e.vals[v].elems
		}
	}
	return e, nil
}

// quantizeInputs is the integer plan's entry: every declared input is
// quantized once, from the caller's FP32 view into its slab region.
func quantizeInputs(p *plan[int8], rs *runState[int8]) {
	for i, v := range p.inputVals {
		tensor.QuantizeSlice(rs.bufs[v], rs.views[i], p.vals[v].qp)
	}
}

// dequantizeOutputs is the integer plan's exit: the codes of every
// declared output that owns a tensor are dequantized into it.
func dequantizeOutputs(p *plan[int8], rs *runState[int8]) {
	for i, v := range p.outputVals {
		t := rs.outs[i]
		if t == nil {
			continue
		}
		tensor.DequantizeSlice(t.F32, rs.bufs[v], p.vals[v].qp)
	}
}
