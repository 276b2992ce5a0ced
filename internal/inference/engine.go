package inference

import (
	"fmt"
	"runtime"
	"sync"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Executable is a compiled model ready to run. Both the host CPU Engine
// and the simulated-accelerator programs (internal/accel) satisfy it, so
// the layers above (kenning targets, the microserver batch server, the
// bench harness) schedule work against one interface regardless of the
// execution target — the same role the paper's common toolchain plays
// across heterogeneous accelerators.
type Executable interface {
	// Run executes one batch of inputs keyed by input-node name and
	// returns the declared outputs.
	Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
	// RunBatch executes several independent requests in one dispatch,
	// amortizing per-call overhead; result i corresponds to request i.
	RunBatch(batches []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error)
}

// Backend compiles graphs into executables for one execution target.
type Backend interface {
	// Name identifies the backend in reports.
	Name() string
	// Compile lowers the graph for this target.
	Compile(g *nn.Graph, opts ...Option) (Executable, error)
}

// CPUBackend is the host-CPU backend: Compile produces an *Engine.
type CPUBackend struct{}

// Name implements Backend.
func (CPUBackend) Name() string { return "cpu-engine" }

// Compile implements Backend.
func (CPUBackend) Compile(g *nn.Graph, opts ...Option) (Executable, error) {
	return Compile(g, opts...)
}

var _ Backend = CPUBackend{}
var _ Executable = (*Engine)(nil)

// Option configures compilation.
type Option func(*config)

type config struct {
	workers   int
	threshold int64
	fp16      bool
}

// WithWorkers bounds the kernel worker pool. The default is
// runtime.GOMAXPROCS(0); 1 disables parallel execution.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithParallelThreshold sets the minimum estimated per-kernel op count
// before work is split across the pool; smaller kernels run inline to
// avoid dispatch overhead.
func WithParallelThreshold(ops int64) Option {
	return func(c *config) { c.threshold = ops }
}

// PrecisionFP16Compute compiles the FP16-compute plan: intermediate
// activations are stored as IEEE binary16 halfwords in a second arena,
// and FP16-stored weights stay half-width in their packed GEMM panels
// instead of being dequantized to FP32 at compile time. Both widen to
// FP32 transiently on load (F16C-accelerated on hosts that have it),
// so the arithmetic itself — and the model's inputs and outputs —
// remain FP32; what halves is the resident width of the working set,
// and with it the model's memory traffic. Outputs differ from the
// plain FP32 engine only by the round-to-nearest-even rounding of each
// intermediate activation through binary16.
func PrecisionFP16Compute() Option {
	return func(c *config) { c.fp16 = true }
}

// defaultParallelThreshold is the estimated cost below which a kernel
// runs inline, in the calibrated units of parallel.go (32 to 48 of them
// per ns of inline work on the AVX-512 host with 2 vCPUs all of this
// was measured on), so it stands for about 200 us. Three measurements
// set it. BenchmarkFanOutCrossover, one vector kernel inline against
// split over two workers, loses split up to 50-90 us of inline work and
// wins from 160-175 us: below that a split pays a goroutine spawn and
// the wake of a parked P for nothing. TestFanOutProfileBatch8 shows the
// same per step of the zoo models at batch 8: split loses below 1<<22
// (GEMM convolutions 1.05-1.25x, element-wise and table-driven steps
// 1.2-2x), comes out even between 1<<22 and 1<<23, and wins above
// (0.52-0.85x); a dense layer first gains at batch 32, where it states
// 1<<23. A whole-Run ladder over thresholds 1<<21 to 1<<25 at batch 1
// to 16, both models and both executors, puts 1<<23 within 4-7% of the
// best rung at every batch and makes it the best at batch 1, where the
// largest step states 1<<22.1 and 1<<22 already costs mobilenetedge 7%.
const defaultParallelThreshold = 1 << 23

// locKind says where a value's buffer lives during Run.
type locKind uint8

const (
	locUnassigned locKind = iota
	locInput              // caller-provided input tensor
	locSlot               // arena slab, reused across liveness intervals
	locOutput             // freshly allocated output tensor
	locSlotH              // halfword arena slab (FP16-compute plans)
)

type location struct {
	kind locKind
	idx  int
}

// value is one activation in the plan. Shapes are per sample: the batch
// dimension is supplied at Run time and scales every buffer uniformly.
type value struct {
	name  string
	per   tensor.Shape
	elems int
	loc   location
	// fp16 marks a value the lowering pipeline assigned FP16 storage:
	// the planner parks it in the halfword arena and Run widens it to
	// FP32 staging only while a step computes with it.
	fp16 bool
}

// step is one bound kernel invocation.
type step struct {
	name string
	op   nn.OpType
	out  int
	ins  []int
	kern kernelFunc
}

// Engine is a compiled execution plan: topologically ordered steps with
// pre-resolved kernels, weights dequantized to FP32 once at compile
// time, and a static arena plan that reuses activation slabs based on
// liveness. Engines are immutable after Compile and safe for concurrent
// Run calls: per-call scratch arenas come from an internal pool.
//
// The engine snapshots weights at compile time; mutating the source
// graph afterwards does not affect a compiled engine.
type Engine struct {
	name        string
	inputNames  []string
	inputVals   []int
	outputNames []string
	outputVals  []int
	vals        []value
	steps       []step

	// fullSteps is the unfused expansion of steps: fused producer+
	// activation pairs run as two steps so every graph value
	// materializes. RunAll (calibration, debugging) walks it; Run never
	// does. When the plan has no fusions it is the steps slice itself.
	fullSteps []step
	// aliases maps graph values eliminated by lowering rewrites
	// (identity elimination, CSE) to the plan value carrying the same
	// activation, for RunAll reporting.
	aliases map[string]int

	// Per-sample shapes of declared inputs/outputs, precomputed at
	// compile time so the per-call paths allocate nothing for them.
	inPer  []tensor.Shape
	outPer []tensor.Shape

	// Arena plan: slotOff/slotSize are per-sample float counts; the
	// arena for a batch-N call is arenaPerSample*N floats.
	slotOff        []int
	slotSize       []int
	arenaPerSample int

	// FP16-compute plans add a second, halfword arena for FP16-stored
	// activations plus an FP32 staging region Run widens operands into
	// while a step computes with them. All three fields are zero for
	// plain FP32 plans, and the extra pools then stay untouched.
	slotOffH        []int
	slotSizeH       []int
	arenaHPerSample int
	stagePerSample  int
	arenasH         sync.Pool // *[]uint16
	stages          sync.Pool // *[]float32

	// trafficPerSample is the modeled per-sample memory traffic of one
	// Run in bytes: every step streams its operands once at their
	// stored width and its weights once at their resident width.
	trafficPerSample int

	// scratch is the element-wise maximum of every bound kernel's
	// transient-buffer spec (GEMM pack tiles, accumulator tiles),
	// computed at compile time; scratchPool recycles the per-Run
	// allocations sized from it. Scratch is tracked separately from the
	// activation arena, so ArenaFloatsPerSample stays the activation
	// working set alone.
	scratch     scratchSpec
	scratchPool sync.Pool // *scratchBufs

	cfg    config
	arenas sync.Pool // *[]float32
}

// Name returns the compiled graph's name.
func (e *Engine) Name() string { return e.name }

// NumSlots returns the number of arena slabs the planner allocated —
// the peak number of simultaneously live intermediate activations.
func (e *Engine) NumSlots() int { return len(e.slotSize) }

// ArenaFloatsPerSample returns the arena footprint in float32 elements
// per batch sample. Without planning this would be the sum of all
// intermediate activation sizes; with liveness-based reuse it is the
// peak working set.
func (e *Engine) ArenaFloatsPerSample() int { return e.arenaPerSample }

// Compile lowers a graph into an execution plan through the shared
// lowering pipeline (see Lower and the ir package): the graph becomes a
// typed IR, the pass pipeline rewrites it — folding constants, dropping
// identity/dead nodes, merging common subexpressions and fusing
// conv/dense/batch-norm with their activations — and the lowered module
// is bound to FP32 kernels with weights dequantized at compile time,
// then arena-planned by liveness. The batch dimension stays dynamic:
// Run accepts any batch size. Compile never mutates the source graph.
func Compile(g *nn.Graph, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	var (
		m   *ir.Module
		err error
	)
	if cfg.fp16 {
		// FP16-compute lowering: same pipeline, with the precision pass
		// stamping intermediate activations FP16.
		m, _, err = ir.Lower(g, ir.Config{FP16Compute: true}, false)
	} else {
		m, _, err = Lower(g, nil, false)
	}
	if err != nil {
		return nil, err
	}
	return newEngine(m, cfg)
}

// newConfig resolves compile options against the defaults.
func newConfig(opts []Option) config {
	cfg := config{workers: runtime.GOMAXPROCS(0), threshold: defaultParallelThreshold}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.threshold < 0 {
		cfg.threshold = 0
	}
	return cfg
}

// newEngine binds a lowered FP32 module to kernels and plans its arena.
func newEngine(m *ir.Module, cfg config) (*Engine, error) {
	sc := buildScaffold(m)
	e := &Engine{
		name:        m.Name,
		cfg:         cfg,
		vals:        sc.vals,
		inputNames:  sc.inputNames,
		inputVals:   sc.inputVals,
		outputNames: sc.outputNames,
		outputVals:  sc.outputVals,
		aliases:     sc.aliases,
	}
	fused := false
	var stats bindStats
	for _, op := range m.Ops {
		if op.Kind == nn.OpInput {
			continue
		}
		ins, inPer := opOperands(&sc, op)
		n := nodeFromOp(op)
		out := sc.valOf[op.Out]
		ep, err := buildEpilogue(op, channelCount(e.vals[out].per))
		if err != nil {
			return nil, compileError(op, false, err)
		}
		kern, spec, err := bindKernel(n, inPer, e.vals[out].per, ep, cfg.fp16, &stats)
		if err != nil {
			return nil, compileError(op, false, err)
		}
		e.scratch.grow(spec)
		st := step{name: op.Name, op: op.Kind, out: out, ins: ins, kern: kern}
		e.steps = append(e.steps, st)
		if len(op.Fused) == 0 {
			e.fullSteps = append(e.fullSteps, st)
			continue
		}
		// Unfused expansion for RunAll: the producer writes its own
		// (pre-epilogue) value, then each absorbed stage runs as its own
		// step — the exact plan the fused step collapses. Stats stay
		// nil: the weights were already counted by the fused bind.
		fused = true
		pre := sc.valOf[op.Fused[0].Pre]
		preKern, preSpec, err := bindKernel(n, inPer, e.vals[pre].per, nil, cfg.fp16, nil)
		if err != nil {
			return nil, compileError(op, false, err)
		}
		e.scratch.grow(preSpec)
		e.fullSteps = append(e.fullSteps, step{name: op.Name, op: op.Kind, out: pre, ins: ins, kern: preKern})
		for i := range op.Fused {
			f := &op.Fused[i]
			fOut := sc.valOf[op.FusedOut(i)]
			fKern, fSpec, err := bindKernel(nodeFromFused(f), []tensor.Shape{e.vals[pre].per}, e.vals[fOut].per, nil, cfg.fp16, nil)
			if err != nil {
				return nil, compileError(op, false, err)
			}
			e.scratch.grow(fSpec)
			e.fullSteps = append(e.fullSteps, step{name: f.Name, op: f.Kind, out: fOut, ins: []int{pre}, kern: fKern})
			pre = fOut
		}
	}
	if !fused {
		e.fullSteps = e.steps
	}
	e.planMemory()
	e.planStaging()
	e.trafficPerSample = e.modeledActivationTraffic() + stats.weightBytes
	e.inPer, e.outPer = perShapes(e.vals, e.inputVals), perShapes(e.vals, e.outputVals)
	return e, nil
}

// planStaging sizes the FP32 staging region of an FP16-compute plan:
// the per-sample maximum, over the steps, of the halfword-resident
// operands a step widens while it runs. Zero for plain FP32 plans.
func (e *Engine) planStaging() {
	for _, st := range e.steps {
		need := 0
		for _, in := range st.ins {
			if e.vals[in].loc.kind == locSlotH {
				need += e.vals[in].elems
			}
		}
		if e.vals[st.out].loc.kind == locSlotH {
			need += e.vals[st.out].elems
		}
		if need > e.stagePerSample {
			e.stagePerSample = need
		}
	}
}

// modeledActivationTraffic models the per-sample activation bytes one
// Run moves: every step reads each input and writes its output once at
// the value's stored width (2 bytes for FP16-resident values, 4 for
// FP32). Together with the resident weight bytes the binders report it
// feeds ModeledTrafficBytesPerSample.
func (e *Engine) modeledActivationTraffic() int {
	width := func(v int) int {
		if e.vals[v].fp16 {
			return 2
		}
		return 4
	}
	traffic := 0
	for _, st := range e.steps {
		for _, in := range st.ins {
			traffic += e.vals[in].elems * width(in)
		}
		traffic += e.vals[st.out].elems * width(st.out)
	}
	return traffic
}

// ModeledTrafficBytesPerSample returns the modeled per-sample memory
// traffic of one Run in bytes: activations at their stored width plus
// weights at their resident width. The FP16-compute plan halves both
// for FP16-stored models, which is the bench harness's
// fp16_mem_traffic_ratio numerator/denominator.
func (e *Engine) ModeledTrafficBytesPerSample() int { return e.trafficPerSample }

// perShapes collects the per-sample shape of each listed value.
func perShapes(vals []value, ids []int) []tensor.Shape {
	per := make([]tensor.Shape, len(ids))
	for i, v := range ids {
		per[i] = vals[v].per
	}
	return per
}

func (e *Engine) getArena(batch int) []float32 {
	need := e.arenaPerSample * batch
	if need == 0 {
		return nil
	}
	if p, ok := e.arenas.Get().(*[]float32); ok {
		if cap(*p) >= need {
			return (*p)[:need]
		}
	}
	return make([]float32, need)
}

func (e *Engine) putArena(buf []float32) {
	if buf == nil {
		return
	}
	e.arenas.Put(&buf)
}

// getArenaH draws the halfword arena of an FP16-compute plan; nil for
// plain FP32 plans.
func (e *Engine) getArenaH(batch int) []uint16 {
	need := e.arenaHPerSample * batch
	if need == 0 {
		return nil
	}
	if p, ok := e.arenasH.Get().(*[]uint16); ok {
		if cap(*p) >= need {
			return (*p)[:need]
		}
	}
	return make([]uint16, need)
}

func (e *Engine) putArenaH(buf []uint16) {
	if buf == nil {
		return
	}
	e.arenasH.Put(&buf)
}

// getStage draws the FP32 staging region steps widen FP16-resident
// operands into; nil for plain FP32 plans.
func (e *Engine) getStage(batch int) []float32 {
	need := e.stagePerSample * batch
	if need == 0 {
		return nil
	}
	if p, ok := e.stages.Get().(*[]float32); ok {
		if cap(*p) >= need {
			return (*p)[:need]
		}
	}
	return make([]float32, need)
}

func (e *Engine) putStage(buf []float32) {
	if buf == nil {
		return
	}
	e.stages.Put(&buf)
}

// resolveInputs validates the provided inputs against the plan and
// returns their FP32 views plus the call's batch size.
func (e *Engine) resolveInputs(inputs map[string]*tensor.Tensor) ([][]float32, int, error) {
	return resolveBatchedInputs(e.inputNames, e.inPer, inputs)
}

// resolveBatchedInputs validates an input map against per-sample shapes
// and returns the FP32 views plus the call's batch size. Shared by the
// FP32 engine and the quantized engine (which quantizes the views at
// graph entry).
func resolveBatchedInputs(inputNames []string, per []tensor.Shape, inputs map[string]*tensor.Tensor) ([][]float32, int, error) {
	if len(inputNames) == 0 {
		return nil, 0, fmt.Errorf("inference: graph declares no inputs")
	}
	bufs := make([][]float32, len(inputNames))
	batch := 0
	for i, name := range inputNames {
		t, ok := inputs[name]
		if !ok || t == nil {
			return nil, 0, fmt.Errorf("inference: missing input %q", name)
		}
		if len(t.Shape) == 0 {
			return nil, 0, fmt.Errorf("inference: input %q is a scalar, want batched tensor", name)
		}
		if !t.Shape[1:].Equal(per[i]) {
			return nil, 0, fmt.Errorf("inference: input %q has shape %v, want %v", name, t.Shape,
				append(tensor.Shape{t.Shape[0]}, per[i]...))
		}
		if i == 0 {
			batch = t.Shape[0]
		} else if t.Shape[0] != batch {
			return nil, 0, fmt.Errorf("inference: input %q has batch %d, want %d", name, t.Shape[0], batch)
		}
		if t.DType == tensor.FP32 {
			bufs[i] = t.F32
		} else {
			bufs[i] = t.Float32s()
		}
	}
	if batch <= 0 {
		return nil, 0, fmt.Errorf("inference: batch must be positive")
	}
	return bufs, batch, nil
}

// Run executes the plan for one batch of inputs. It is safe to call
// concurrently from multiple goroutines.
func (e *Engine) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	inBufs, batch, err := e.resolveInputs(inputs)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(e.outputVals))
	for i, v := range e.outputVals {
		loc := e.vals[v].loc
		if loc.kind == locOutput && loc.idx == i {
			outs[i] = tensor.New(tensor.FP32, append(tensor.Shape{batch}, e.vals[v].per...)...)
		}
	}
	arena := e.getArena(batch)
	arenaH, stage := e.getArenaH(batch), e.getStage(batch)
	resolve := func(v int) []float32 {
		val := &e.vals[v]
		switch val.loc.kind {
		case locInput:
			return inBufs[val.loc.idx]
		case locOutput:
			return outs[val.loc.idx].F32
		case locSlot:
			off := e.slotOff[val.loc.idx] * batch
			return arena[off : off+val.elems*batch]
		}
		return nil
	}
	// resolveH locates an FP16-resident value's halfword slab. Steps
	// never compute on it directly: inputs widen into the staging
	// region on load, outputs compute in staging and narrow on store.
	resolveH := func(v int) []uint16 {
		val := &e.vals[v]
		off := e.slotOffH[val.loc.idx] * batch
		return arenaH[off : off+val.elems*batch]
	}
	sb := getScratch(&e.scratchPool, e.scratch, batch, e.cfg.workers)
	rc := runCtx{batch: batch, workers: e.cfg.workers, threshold: e.cfg.threshold, spec: e.scratch, scratch: sb}
	srcs := make([][]float32, 0, 4)
	for si := range e.steps {
		st := &e.steps[si]
		srcs = srcs[:0]
		staged := 0
		for _, in := range st.ins {
			if e.vals[in].loc.kind == locSlotH {
				n := e.vals[in].elems * batch
				buf := stage[staged : staged+n]
				staged += n
				tensor.F16ToF32(buf, resolveH(in))
				srcs = append(srcs, buf)
				continue
			}
			srcs = append(srcs, resolve(in))
		}
		dst := resolve(st.out)
		var dstH []uint16
		if e.vals[st.out].loc.kind == locSlotH {
			dstH = resolveH(st.out)
			n := e.vals[st.out].elems * batch
			dst = stage[staged : staged+n]
		}
		if err := st.kern(&rc, dst, srcs); err != nil {
			putScratch(&e.scratchPool, sb)
			e.putArena(arena)
			e.putArenaH(arenaH)
			e.putStage(stage)
			return nil, fmt.Errorf("inference: node %q (%s): %w", st.name, st.op, err)
		}
		if dstH != nil {
			tensor.F32ToF16(dstH, dst)
		}
	}
	putScratch(&e.scratchPool, sb)
	e.putArena(arena)
	e.putArenaH(arenaH)
	e.putStage(stage)
	result := make(map[string]*tensor.Tensor, len(e.outputVals))
	for i, v := range e.outputVals {
		loc := e.vals[v].loc
		switch loc.kind {
		case locOutput:
			result[e.outputNames[i]] = outs[loc.idx]
		case locInput:
			// A graph output that resolves to an input value passes the
			// caller's tensor through, as in the interpreter.
			result[e.outputNames[i]] = inputs[e.inputNames[loc.idx]]
		}
	}
	return result, nil
}

// RunAll executes the plan and returns every lowered value's activation
// keyed by graph node name, bypassing the arena (each activation gets
// its own tensor so all of them remain valid after the call). It walks
// the unfused step expansion, so fused pre-activation values
// materialize too, and values eliminated by lowering rewrites (identity
// removal, CSE) are reported through their surviving alias.
// Calibration uses this to observe every dynamic range the quantized
// compiler needs. RunAll materializes everything in FP32 and never
// narrows through the halfword arena, so on an FP16-compute plan it is
// the full-precision reference Run's rounded activations compare to.
func (e *Engine) RunAll(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	inBufs, batch, err := e.resolveInputs(inputs)
	if err != nil {
		return nil, err
	}
	acts := make([]*tensor.Tensor, len(e.vals))
	result := make(map[string]*tensor.Tensor, len(e.vals))
	for i := range e.inputVals {
		result[e.inputNames[i]] = inputs[e.inputNames[i]]
	}
	resolve := func(v int) []float32 {
		if e.vals[v].loc.kind == locInput {
			return inBufs[e.vals[v].loc.idx]
		}
		return acts[v].F32
	}
	sb := getScratch(&e.scratchPool, e.scratch, batch, e.cfg.workers)
	defer putScratch(&e.scratchPool, sb)
	rc := runCtx{batch: batch, workers: e.cfg.workers, threshold: e.cfg.threshold, spec: e.scratch, scratch: sb}
	srcs := make([][]float32, 0, 4)
	for si := range e.fullSteps {
		st := &e.fullSteps[si]
		acts[st.out] = tensor.New(tensor.FP32, append(tensor.Shape{batch}, e.vals[st.out].per...)...)
		srcs = srcs[:0]
		for _, in := range st.ins {
			srcs = append(srcs, resolve(in))
		}
		if err := st.kern(&rc, acts[st.out].F32, srcs); err != nil {
			return nil, fmt.Errorf("inference: node %q (%s): %w", st.name, st.op, err)
		}
		result[st.name] = acts[st.out]
	}
	for name, v := range e.aliases {
		if e.vals[v].loc.kind == locInput {
			result[name] = inputs[e.inputNames[e.vals[v].loc.idx]]
		} else if acts[v] != nil {
			result[name] = acts[v]
		}
	}
	return result, nil
}

// RunSingle is a convenience wrapper for graphs with exactly one input
// and one output.
func (e *Engine) RunSingle(in *tensor.Tensor) (*tensor.Tensor, error) {
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

// RunBatch fuses several independent requests into one dispatch: inputs
// are stacked along the batch dimension, the plan runs once, and the
// outputs are split back per request. Serving layers use this to
// amortize dispatch overhead and to give the parallel kernels larger
// work items.
func (e *Engine) RunBatch(batches []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	return fuseRunBatch(e.Run, e.inputNames, e.inPer, e.outputNames, e.outPer, batches)
}

// fuseRunBatch implements batch fusion generically over any plan whose
// Run consumes and produces FP32 tensors: inputs are stacked along the
// batch dimension, run executes once, and the outputs are split back per
// request. Both the FP32 engine and the quantized engine dispatch fused
// batches through it.
func fuseRunBatch(run func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error),
	inputNames []string, inputPer []tensor.Shape,
	outputNames []string, outputPer []tensor.Shape,
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
	first := inputNames[0]
	for r, req := range batches {
		t, ok := req[first]
		if !ok || t == nil || len(t.Shape) == 0 {
			return nil, fmt.Errorf("inference: request %d: missing input %q", r, first)
		}
		sizes[r] = t.Shape[0]
		total += t.Shape[0]
	}
	// Stack every input.
	stacked := make(map[string]*tensor.Tensor, len(inputNames))
	for i, name := range inputNames {
		perShape := inputPer[i]
		perElems := perShape.NumElements()
		st := tensor.New(tensor.FP32, append(tensor.Shape{total}, perShape...)...)
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
			if t.DType == tensor.FP32 {
				copy(st.F32[off:], t.F32)
			} else {
				copy(st.F32[off:], t.Float32s())
			}
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
		results[r] = make(map[string]*tensor.Tensor, len(outputNames))
	}
	for i, name := range outputNames {
		full := outs[name]
		perShape := outputPer[i]
		perElems := perShape.NumElements()
		src := full.F32
		off := 0
		for r := range batches {
			part := tensor.New(tensor.FP32, append(tensor.Shape{sizes[r]}, perShape...)...)
			copy(part.F32, src[off:off+sizes[r]*perElems])
			off += sizes[r] * perElems
			results[r][name] = part
		}
	}
	return results, nil
}
