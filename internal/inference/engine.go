package inference

import (
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
}

// WithWorkers bounds the kernel worker pool. The default is
// runtime.GOMAXPROCS(0); 1 disables parallel execution.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// withParallelThreshold sets the minimum estimated per-kernel op count
// before work is split across the pool; smaller kernels run inline to
// avoid dispatch overhead.
func withParallelThreshold(ops int64) Option {
	return func(c *config) { c.threshold = ops }
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
// graph afterwards does not affect Run. RunAll's expansion is bound on
// its first call from the lowered module, which references the source
// graph's weight tensors: calibrate before mutating them in place.
type Engine struct {
	plan[float32]

	// m is the lowered module RunAll's unfused expansion is bound from.
	m *ir.Module
	// full is the unfused expansion of steps, a plan of its own (steps,
	// scratch, pool) over the same scaffold: fused producer+activation
	// pairs run as two steps so every graph value materializes. RunAll
	// (calibration, debugging) binds it once and walks it; Run never
	// does, so a cold compile does not pay for it.
	fullOnce sync.Once
	full     *plan[float32]
	fullErr  error
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
	m, _, err := Lower(g, nil, false)
	if err != nil {
		return nil, err
	}
	return newEngine(m, newConfig(opts))
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

// newEngine binds a lowered FP32 module to kernels, the ops spread over
// the compile's workers, and plans its arena.
func newEngine(m *ir.Module, cfg config) (*Engine, error) {
	e := &Engine{plan: plan[float32]{scaffold: buildScaffold(m), cfg: cfg, enter: enterF32}, m: m}
	ops := stepOps(m)
	e.steps = make([]step[float32], len(ops))
	specs := make([]scratchSpec, len(ops))
	err := cfg.lowerEach(len(ops), func(i int) error {
		op := ops[i]
		ins, inPer := opOperands(&e.scaffold, op)
		out := e.valOf[op.Out]
		ep, err := buildEpilogue(op, channelCount(e.vals[out].per))
		if err != nil {
			return compileError(op, false, err)
		}
		kern, spec, err := bindKernel(nodeFromOp(op), inPer, e.vals[out].per, ep)
		if err != nil {
			return compileError(op, false, err)
		}
		e.steps[i] = step[float32]{name: op.Name, op: op.Kind, out: out, ins: ins, kern: kern}
		specs[i] = spec
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		e.scratch.grow(spec)
	}
	e.layout()
	return e, nil
}

// expansion binds RunAll's unfused expansion on first use. An unfused
// op keeps its Run step; a fused producer writes its own (pre-epilogue)
// value, then each absorbed stage runs as its own step — the exact plan
// the fused step collapses. Its scratch covers Run's steps and its own.
func (e *Engine) expansion() (*plan[float32], error) {
	e.fullOnce.Do(func() {
		full := &plan[float32]{scaffold: e.scaffold, cfg: e.cfg, scratch: e.scratch}
		bind := func(n *nn.Node, ins []int, inPer []tensor.Shape, out int) error {
			kern, spec, err := bindKernel(n, inPer, e.vals[out].per, nil)
			full.scratch.grow(spec)
			full.steps = append(full.steps, step[float32]{name: n.Name, op: n.Op, out: out, ins: ins, kern: kern})
			return err
		}
		for i, op := range stepOps(e.m) {
			if len(op.Fused) == 0 {
				full.steps = append(full.steps, e.steps[i])
				continue
			}
			_, inPer := opOperands(&e.scaffold, op)
			pre := e.valOf[op.Fused[0].Pre]
			err := bind(nodeFromOp(op), e.steps[i].ins, inPer, pre)
			for j := 0; err == nil && j < len(op.Fused); j++ {
				out := e.valOf[op.FusedOut(j)]
				err = bind(nodeFromFused(&op.Fused[j]), []int{pre}, []tensor.Shape{e.vals[pre].per}, out)
				pre = out
			}
			if err != nil {
				e.fullErr = compileError(op, false, err)
				return
			}
		}
		e.full = full
	})
	return e.full, e.fullErr
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

// RunAll executes the plan and returns every lowered value's activation
// keyed by graph node name, bypassing the arena (each activation gets
// its own tensor so all of them remain valid after the call). It is the
// executor's step loop over the unfused expansion, so fused
// pre-activation values materialize too, and values eliminated by
// lowering rewrites (identity removal, CSE) are reported through their
// surviving alias. Calibration uses this to observe every dynamic range
// the quantized compiler needs. The first call binds the expansion.
func (e *Engine) RunAll(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	full, err := e.expansion()
	if err != nil {
		return nil, err
	}
	rs := full.acquire()
	defer full.release(rs)
	batch, err := full.resolve(inputs, rs.views)
	if err != nil {
		return nil, err
	}
	rs.size(full, batch)
	result := make(map[string]*tensor.Tensor, len(e.vals)+len(e.aliases))
	acts := make([]*tensor.Tensor, len(e.vals))
	for i, v := range e.inputVals {
		acts[v] = inputs[e.inputNames[i]]
		rs.bufs[v] = rs.views[i]
		result[e.inputNames[i]] = acts[v]
	}
	for _, st := range full.steps {
		acts[st.out] = newBatched(batch, e.vals[st.out].per)
		rs.bufs[st.out] = acts[st.out].F32
		result[st.name] = acts[st.out]
	}
	if err := full.exec(rs, full.steps); err != nil {
		return nil, err
	}
	for name, v := range e.aliases {
		if acts[v] != nil {
			result[name] = acts[v]
		}
	}
	return result, nil
}
