package inference

import (
	"errors"
	"fmt"
	"sync"

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
// step list, liveness-planned arena and bounded worker pool as the FP32
// Engine, but every activation is stored as an int8 code under the
// calibration schema's affine mapping. Inputs are quantized once at
// graph entry, conv/dense run with int32 accumulators and fixed-point
// requantization between layers, element-wise ops run through
// precomputed int8 lookup tables, and values are dequantized only at
// declared outputs. The arena therefore holds one byte per activation
// element instead of four — the ~4x working-set reduction INT8-only
// edge accelerators (EdgeTPU class) get from native quantized execution.
//
// Engines are immutable after CompileQuantized and safe for concurrent
// Run calls: per-call scratch comes from internal pools.
type QuantEngine struct {
	name        string
	inputNames  []string
	inputVals   []int
	outputNames []string
	outputVals  []int
	vals        []value
	qp          []tensor.QuantParams // per value, from the schema
	steps       []qstep
	inPer       []tensor.Shape
	outPer      []tensor.Shape

	// Arena plan: slotOff/slotSize are per-sample int8 element counts;
	// the arena for a batch-N call is arenaPerSample*N bytes.
	slotOff        []int
	slotSize       []int
	arenaPerSample int

	// fallbacks counts steps executed through the dequantize→FP32
	// kernel→requantize wrapper (ops without an integer lowering).
	fallbacks int

	// scratch is the element-wise maximum of every bound kernel's
	// transient-buffer spec (GEMM pack tiles, shifted-input staging,
	// island buffers); scratchPool recycles the per-Run allocations.
	scratch     scratchSpec
	scratchPool sync.Pool // *scratchBufs

	cfg    config
	arenas sync.Pool // *[]int8
	inbufs sync.Pool // *[]int8, entry-quantized inputs
}

// qstep is one bound integer kernel invocation.
type qstep struct {
	name string
	op   nn.OpType
	out  int
	ins  []int
	kern qkernelFunc
}

// qkernelFunc executes one bound operator for a batch over int8 code
// buffers laid out batch-major, mirroring kernelFunc.
type qkernelFunc func(rc *runCtx, dst []int8, srcs [][]int8) error

var _ Executable = (*QuantEngine)(nil)

// QuantizedBackend is the host-CPU backend for the integer plan:
// Compile produces a *QuantEngine under the given calibration schema,
// falling back to the FP32 engine when the graph cannot be lowered
// (ErrNotQuantizable), so callers always get a runnable executable.
type QuantizedBackend struct {
	// Schema is the calibration artifact (optimize.Calibrate or the
	// QuantizeWeights calibration pass).
	Schema *nn.QuantSchema
}

// Name implements Backend.
func (QuantizedBackend) Name() string { return "cpu-engine-int8" }

// Compile implements Backend.
func (b QuantizedBackend) Compile(g *nn.Graph, opts ...Option) (Executable, error) {
	q, err := CompileQuantized(g, b.Schema, opts...)
	if err == nil {
		return q, nil
	}
	if errors.Is(err, ErrNotQuantizable) {
		return Compile(g, opts...)
	}
	return nil, err
}

var _ Backend = QuantizedBackend{}

// Name returns the compiled graph's name.
func (e *QuantEngine) Name() string { return e.name }

// NumSlots returns the number of arena slabs the planner allocated.
func (e *QuantEngine) NumSlots() int { return len(e.slotSize) }

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
// marks ops without an integer lowering as FP32 islands. Kernel binding
// then quantizes weights to int8 (per output channel, symmetric), folds
// biases into int32 and precomputes the fixed-point requantization
// multipliers between layers; islands run through a dequantize→FP32
// kernel→requantize wrapper, so coverage is total once the schema
// covers the lowered module.
//
// Returns ErrNotQuantizable (wrapped) when the schema is nil or does
// not cover every lowered value, or when the model has no materialized
// weights; callers that want transparent degradation use
// QuantizedBackend, which falls back to the FP32 engine.
func CompileQuantized(g *nn.Graph, schema *nn.QuantSchema, opts ...Option) (*QuantEngine, error) {
	cfg := newConfig(opts)
	if schema == nil {
		return nil, fmt.Errorf("%w: nil quant schema", ErrNotQuantizable)
	}
	m, _, err := Lower(g, schema, false)
	if err != nil {
		if errors.Is(err, ir.ErrSchemaGap) {
			return nil, fmt.Errorf("%w: %v", ErrNotQuantizable, err)
		}
		return nil, err
	}
	return newQuantEngine(m, cfg)
}

// newQuantEngine binds a lowered INT8 module to integer kernels and
// plans its (one byte per element) arena.
func newQuantEngine(m *ir.Module, cfg config) (*QuantEngine, error) {
	sc := buildScaffold(m)
	e := &QuantEngine{
		name:        m.Name,
		cfg:         cfg,
		vals:        sc.vals,
		inputNames:  sc.inputNames,
		inputVals:   sc.inputVals,
		outputNames: sc.outputNames,
		outputVals:  sc.outputVals,
	}
	e.qp = make([]tensor.QuantParams, len(e.vals))
	for id, ev := range sc.valOf {
		if ev >= 0 {
			e.qp[ev] = m.Values[id].QP
		}
	}
	for _, op := range m.Ops {
		if op.Kind == nn.OpInput {
			continue
		}
		ins, inPer := opOperands(&sc, op)
		inQ := make([]tensor.QuantParams, len(ins))
		for i, in := range ins {
			inQ[i] = e.qp[in]
		}
		n := nodeFromOp(op)
		out := sc.valOf[op.Out]
		var kern qkernelFunc
		var spec scratchSpec
		var err error
		if !op.Island {
			// The producer requantizes to its own (pre-epilogue)
			// mapping; a fused chain recodes from there through the
			// composed per-channel lookup tables — the same tables the
			// standalone stages would apply one by one.
			outQ := e.qp[out]
			post, perr := buildEpilogueLUTs(m, op, channelCount(e.vals[out].per))
			if perr != nil {
				return nil, compileError(op, true, perr)
			}
			if post != nil {
				outQ = m.Values[op.Fused[0].Pre].QP
			}
			kern, spec, err = bindQuantKernel(n, inPer, e.vals[out].per, inQ, outQ, post)
		}
		if op.Island || errors.Is(err, errNoQuantKernel) {
			// No integer lowering: run the FP32 kernel inside a
			// dequantize/requantize island. A fused op must never reach
			// this path — the bare producer would silently skip its
			// epilogue — so it is a compile error, not a fallback.
			if len(op.Fused) > 0 {
				return nil, compileError(op, true, fmt.Errorf("fused op has no integer lowering"))
			}
			fk, fkSpec, ferr := bindKernel(n, inPer, e.vals[out].per, nil, false, nil)
			if ferr != nil {
				return nil, compileError(op, true, ferr)
			}
			var wrapSpec scratchSpec
			kern, wrapSpec = wrapFP32Fallback(fk, inPer, e.vals[out].per, inQ, e.qp[out])
			spec = fkSpec
			spec.grow(wrapSpec)
			e.fallbacks++
			err = nil
		}
		if err != nil {
			return nil, compileError(op, true, err)
		}
		e.scratch.grow(spec)
		e.steps = append(e.steps, qstep{name: op.Name, op: op.Kind, out: out, ins: ins, kern: kern})
	}
	steps := make([]planStep, len(e.steps))
	for i, st := range e.steps {
		steps[i] = planStep{out: st.out, ins: st.ins}
	}
	e.slotOff, e.slotSize, e.arenaPerSample = planArena(e.vals, steps, locSlot,
		func(*value) bool { return true })
	e.inPer, e.outPer = perShapes(e.vals, e.inputVals), perShapes(e.vals, e.outputVals)
	return e, nil
}

func (e *QuantEngine) getBuf(pool *sync.Pool, need int) []int8 {
	if need == 0 {
		return nil
	}
	if p, ok := pool.Get().(*[]int8); ok && cap(*p) >= need {
		return (*p)[:need]
	}
	return make([]int8, need)
}

func putBuf(pool *sync.Pool, buf []int8) {
	if buf != nil {
		pool.Put(&buf)
	}
}

// Run executes the integer plan for one batch of FP32 inputs and
// returns FP32 outputs: quantize at entry, int8 end to end, dequantize
// at exit. Safe for concurrent use.
func (e *QuantEngine) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	inBufs, batch, err := resolveBatchedInputs(e.inputNames, e.inPer, inputs)
	if err != nil {
		return nil, err
	}
	sb := getScratch(&e.scratchPool, e.scratch, batch, e.cfg.workers)
	defer putScratch(&e.scratchPool, sb)
	rc := runCtx{batch: batch, workers: e.cfg.workers, threshold: e.cfg.threshold, spec: e.scratch, scratch: sb}

	// Quantize every input once at graph entry.
	inElems := 0
	for _, v := range e.inputVals {
		inElems += e.vals[v].elems
	}
	inArena := e.getBuf(&e.inbufs, inElems*batch)
	qin := make([][]int8, len(e.inputVals))
	off := 0
	for i, v := range e.inputVals {
		n := e.vals[v].elems * batch
		buf := inArena[off : off+n]
		off += n
		q := e.qp[v]
		src := inBufs[i]
		rc.parallelFor(n, costQuantize, func(lo, hi int) {
			tensor.QuantizeSlice(buf[lo:hi], src[lo:hi], q)
		})
		qin[i] = buf
	}

	outs8 := make([][]int8, len(e.outputVals))
	for i, v := range e.outputVals {
		loc := e.vals[v].loc
		if loc.kind == locOutput && loc.idx == i {
			outs8[i] = make([]int8, e.vals[v].elems*batch)
		}
	}
	arena := e.getBuf(&e.arenas, e.arenaPerSample*batch)
	resolve := func(v int) []int8 {
		val := &e.vals[v]
		switch val.loc.kind {
		case locInput:
			return qin[val.loc.idx]
		case locOutput:
			return outs8[val.loc.idx]
		case locSlot:
			off := e.slotOff[val.loc.idx] * batch
			return arena[off : off+val.elems*batch]
		}
		return nil
	}
	srcs := make([][]int8, 0, 4)
	for si := range e.steps {
		st := &e.steps[si]
		srcs = srcs[:0]
		for _, in := range st.ins {
			srcs = append(srcs, resolve(in))
		}
		if err := st.kern(&rc, resolve(st.out), srcs); err != nil {
			putBuf(&e.arenas, arena)
			putBuf(&e.inbufs, inArena)
			return nil, fmt.Errorf("inference: quantized node %q (%s): %w", st.name, st.op, err)
		}
	}

	// Dequantize declared outputs into fresh FP32 tensors. A name
	// listed twice in g.Outputs shares one buffer (loc.idx points at
	// the first occurrence), exactly like the FP32 engine.
	result := make(map[string]*tensor.Tensor, len(e.outputVals))
	for i, v := range e.outputVals {
		loc := e.vals[v].loc
		switch loc.kind {
		case locOutput:
			if _, done := result[e.outputNames[i]]; done {
				continue
			}
			t := tensor.New(tensor.FP32, append(tensor.Shape{batch}, e.vals[v].per...)...)
			codes := outs8[loc.idx]
			q := e.qp[v]
			rc.parallelFor(len(codes), costElem, func(lo, hi int) {
				tensor.DequantizeSlice(t.F32[lo:hi], codes[lo:hi], q)
			})
			result[e.outputNames[i]] = t
		case locInput:
			// A graph output that resolves to an input value passes
			// through unquantized, as in the FP32 engine.
			result[e.outputNames[i]] = inputs[e.inputNames[loc.idx]]
		}
	}
	putBuf(&e.arenas, arena)
	putBuf(&e.inbufs, inArena)
	return result, nil
}

// RunSingle is a convenience wrapper for graphs with exactly one input
// and one output.
func (e *QuantEngine) RunSingle(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(e.inputNames) != 1 || len(e.outputNames) != 1 {
		return nil, fmt.Errorf("inference: RunSingle wants 1 input/1 output, graph has %d/%d",
			len(e.inputNames), len(e.outputNames))
	}
	outs, err := e.Run(map[string]*tensor.Tensor{e.inputNames[0]: in})
	if err != nil {
		return nil, err
	}
	return outs[e.outputNames[0]], nil
}

// RunBatch fuses several independent requests into one dispatch of the
// integer plan, through the same stack/split path as the FP32 engine.
func (e *QuantEngine) RunBatch(batches []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	return fuseRunBatch(e.Run, e.inputNames, e.inPer, e.outputNames, e.outPer, batches)
}
