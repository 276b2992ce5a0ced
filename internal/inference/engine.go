package inference

import (
	"runtime"

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
	// the planner parks it in the halfword arena and its steps widen it
	// to FP32 staging only while they compute with it.
	fp16 bool
	// qp is the calibration schema's affine mapping of the value's int8
	// codes (zero outside the integer plan).
	qp tensor.QuantParams
}

// Engine is a compiled execution plan: topologically ordered steps with
// pre-resolved kernels, weights dequantized to FP32 once at compile
// time, and a static arena plan that reuses activation slabs based on
// liveness. Engines are immutable after Compile and safe for concurrent
// Run calls: per-call state comes from the plan's pool. Run, RunSingle
// and RunBatch are the shared plan executor's (exec.go); the engine is
// the FP32 binder.
//
// The engine snapshots weights at compile time; mutating the source
// graph afterwards does not affect a compiled engine.
type Engine struct {
	plan[float32]

	// fullSteps is the unfused expansion of steps: fused producer+
	// activation pairs run as two steps so every graph value
	// materializes, and no kernel stages through the halfword arena.
	// RunAll (calibration, debugging) walks it; Run never does.
	fullSteps []step[float32]

	// trafficPerSample is the modeled per-sample memory traffic of one
	// Run in bytes: every step streams its operands once at their
	// stored width and its weights once at their resident width.
	trafficPerSample int
}

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
	e := &Engine{plan: plan[float32]{scaffold: buildScaffold(m), cfg: cfg, enter: enterF32}}
	var stats bindStats
	for _, op := range m.Ops {
		if op.Kind == nn.OpInput {
			continue
		}
		ins, inPer := opOperands(&e.scaffold, op)
		n := nodeFromOp(op)
		out := e.valOf[op.Out]
		ep, err := buildEpilogue(op, channelCount(e.vals[out].per))
		if err != nil {
			return nil, compileError(op, false, err)
		}
		kern, spec, err := bindKernel(n, inPer, e.vals[out].per, ep, cfg.fp16, &stats)
		if err != nil {
			return nil, compileError(op, false, err)
		}
		e.scratch.grow(spec)
		st := step[float32]{name: op.Name, op: op.Kind, out: out, ins: ins, kern: kern}
		e.steps = append(e.steps, st)
		if len(op.Fused) == 0 {
			e.fullSteps = append(e.fullSteps, st)
			continue
		}
		// Unfused expansion for RunAll: the producer writes its own
		// (pre-epilogue) value, then each absorbed stage runs as its own
		// step — the exact plan the fused step collapses. Stats stay
		// nil: the weights were already counted by the fused bind.
		pre := e.valOf[op.Fused[0].Pre]
		preKern, preSpec, err := bindKernel(n, inPer, e.vals[pre].per, nil, cfg.fp16, nil)
		if err != nil {
			return nil, compileError(op, false, err)
		}
		e.scratch.grow(preSpec)
		e.fullSteps = append(e.fullSteps, step[float32]{name: op.Name, op: op.Kind, out: pre, ins: ins, kern: preKern})
		for i := range op.Fused {
			f := &op.Fused[i]
			fOut := e.valOf[op.FusedOut(i)]
			fKern, fSpec, err := bindKernel(nodeFromFused(f), []tensor.Shape{e.vals[pre].per}, e.vals[fOut].per, nil, cfg.fp16, nil)
			if err != nil {
				return nil, compileError(op, false, err)
			}
			e.scratch.grow(fSpec)
			e.fullSteps = append(e.fullSteps, step[float32]{name: f.Name, op: f.Kind, out: fOut, ins: []int{pre}, kern: fKern})
			pre = fOut
		}
	}
	e.layout()
	e.stageHalfwords()
	e.trafficPerSample = e.modeledActivationTraffic() + stats.weightBytes
	return e, nil
}

// enterF32 is the FP32 plans' entry: declared inputs are read where the
// caller left them and declared outputs are written straight into the
// tensors that leave the call, so there is nothing to convert on exit.
func enterF32(p *plan[float32], rs *runState[float32]) {
	for i, v := range p.inputVals {
		rs.bufs[v] = rs.views[i]
	}
	for i, v := range p.outputVals {
		if t := rs.outs[i]; t != nil {
			rs.bufs[v] = t.F32
		}
	}
}

// halfSlab locates an FP16-resident value in the halfword arena, in
// per-sample elements; elems is zero for a value that lives elsewhere.
type halfSlab struct{ off, elems int }

// stageHalfwords rebinds every step of an FP16-compute plan that
// touches a halfword-resident value (a no-op for plain FP32 plans) and
// sizes the staging region to the largest such step. Kernels never
// compute on halfwords: the wrapper widens each such operand into the
// run's FP32 staging region on load, lets the kernel write a
// halfword-resident result there too, and narrows it on store.
func (e *Engine) stageHalfwords() {
	half := func(v int) halfSlab {
		if loc := e.vals[v].loc; loc.kind == locSlotH {
			return halfSlab{e.slotOffH[loc.idx], e.vals[v].elems}
		}
		return halfSlab{}
	}
	for si := range e.steps {
		st := &e.steps[si]
		ins := make([]halfSlab, len(st.ins))
		out := half(st.out)
		need := out.elems
		for i, in := range st.ins {
			ins[i] = half(in)
			need += ins[i].elems
		}
		if need > 0 {
			st.kern = stagedKernel(st.kern, ins, out)
		}
		e.stagePerSample = max(e.stagePerSample, need)
	}
}

// stagedKernel wraps kern with the widen-on-load, narrow-on-store
// staging of its halfword-resident operands.
func stagedKernel(kern kernelFunc[float32], ins []halfSlab, out halfSlab) kernelFunc[float32] {
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		staged := 0
		for i, h := range ins {
			if h.elems == 0 {
				continue
			}
			n := h.elems * rc.batch
			srcs[i] = rc.stage[staged : staged+n]
			staged += n
			tensor.F16ToF32(srcs[i], rc.arenaH[h.off*rc.batch:][:n])
		}
		if out.elems == 0 {
			return kern(rc, dst, srcs)
		}
		n := out.elems * rc.batch
		dst = rc.stage[staged : staged+n]
		if err := kern(rc, dst, srcs); err != nil {
			return err
		}
		tensor.F32ToF16(rc.arenaH[out.off*rc.batch:][:n], dst)
		return nil
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

// RunAll executes the plan and returns every lowered value's activation
// keyed by graph node name, bypassing the arena (each activation gets
// its own tensor so all of them remain valid after the call). It is the
// executor's step loop over the unfused expansion, so fused
// pre-activation values materialize too, and values eliminated by
// lowering rewrites (identity removal, CSE) are reported through their
// surviving alias. Calibration uses this to observe every dynamic range
// the quantized compiler needs. RunAll materializes everything in FP32
// and never narrows through the halfword arena, so on an FP16-compute
// plan it is the full-precision reference Run's rounded activations
// compare to.
func (e *Engine) RunAll(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	rs := e.acquire()
	defer e.release(rs)
	batch, err := e.resolve(inputs, rs.views)
	if err != nil {
		return nil, err
	}
	rs.size(&e.plan, batch)
	result := make(map[string]*tensor.Tensor, len(e.vals)+len(e.aliases))
	acts := make([]*tensor.Tensor, len(e.vals))
	for i, v := range e.inputVals {
		acts[v] = inputs[e.inputNames[i]]
		rs.bufs[v] = rs.views[i]
		result[e.inputNames[i]] = acts[v]
	}
	for _, st := range e.fullSteps {
		acts[st.out] = newBatched(batch, e.vals[st.out].per)
		rs.bufs[st.out] = acts[st.out].F32
		result[st.name] = acts[st.out]
	}
	if err := e.exec(rs, e.fullSteps); err != nil {
		return nil, err
	}
	for name, v := range e.aliases {
		if acts[v] != nil {
			result[name] = acts[v]
		}
	}
	return result, nil
}
