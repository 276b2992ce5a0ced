package inference

import (
	"fmt"
	"sync"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// The plan executor.
//
// Every host execution — Engine.Run, Engine.RunAll, QuantEngine.Run —
// is the one step loop in exec over a plan[T]: T is the element type
// of the activation buffers the bound kernels read and write (float32
// values or int8 codes). The engines are compile-time binders that
// fill a plan in; what differs between them at run time is confined to
// the enter and exit hooks (where the declared inputs and outputs live,
// and the quantize-in / dequantize-out conversion of the integer plan).

// kernelFunc executes one bound operator for a batch. dst and srcs are
// batch-major buffers laid out as batch x per-sample elements.
type kernelFunc[T float32 | int8] func(rc *runCtx, dst []T, srcs [][]T) error

// step is one bound kernel invocation.
type step[T float32 | int8] struct {
	name string
	op   nn.OpType
	out  int
	ins  []int
	kern kernelFunc[T]
}

// plan is a compiled execution plan: the value table and declared
// interface (scaffold), the topologically ordered steps, the slab
// layout the planner chose and the pool of per-run state. Plans are
// immutable after compile and safe for concurrent Run calls.
type plan[T float32 | int8] struct {
	scaffold
	steps []step[T]

	// Arena plan, in per-sample elements (a batch-N call scales by N):
	// the liveness-planned slabs' count and total size.
	numSlots       int
	arenaPerSample int

	// off is each value's per-sample element offset in the run state's
	// slab, or -1 for a value that lives elsewhere (a caller's tensor, an
	// output tensor); slabPerSample is the slab's size: the planned arena
	// plus whatever the binder parks behind it.
	off           []int
	slabPerSample int

	// scratch is the element-wise maximum of every bound kernel's
	// transient-buffer spec (GEMM pack tiles, accumulator tiles, island
	// staging), tracked apart from the activation arena.
	scratch scratchSpec

	// enter places the values that live outside the slab (and converts
	// the inputs, for the integer plan) before the first step; exit,
	// when set, converts the declared outputs after the last.
	enter func(p *plan[T], rs *runState[T])
	exit  func(p *plan[T], rs *runState[T])

	pool sync.Pool // *runState[T]
}

// runState is everything one execution owns: the activation slab, the
// kernels' scratch, the boundary's input views and output tensors, and
// the per-value and per-step buffer tables. It is drawn from the plan's
// pool once per call and returned on every path.
type runState[T float32 | int8] struct {
	rc    runCtx
	sb    scratchBufs
	slab  []T
	views [][]float32      // FP32 view of each declared input
	outs  []*tensor.Tensor // fresh tensor of each declared output that owns one
	bufs  [][]T            // per value: the buffer steps read and write
	srcs  [][]T            // operand table of the step in flight
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short. Contents are never assumed zero.
func grow[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// acquire draws a run state from the pool, building one on a miss.
func (p *plan[T]) acquire() *runState[T] {
	if rs, ok := p.pool.Get().(*runState[T]); ok {
		return rs
	}
	rs := &runState[T]{
		views: make([][]float32, len(p.inputNames)),
		outs:  make([]*tensor.Tensor, len(p.outputNames)),
		bufs:  make([][]T, len(p.vals)),
	}
	rs.rc = runCtx{spec: p.scratch, scratch: &rs.sb}
	return rs
}

// release returns a run state to the pool. The tables are cleared so a
// pooled state does not keep a caller's inputs or the outputs that left
// the call alive.
func (p *plan[T]) release(rs *runState[T]) {
	clear(rs.views)
	clear(rs.outs)
	clear(rs.bufs)
	p.pool.Put(rs)
}

// size grows the state's regions to this call's batch and points every
// slab-resident value's buffer at its planned offset.
func (rs *runState[T]) size(p *plan[T], batch int) {
	rs.slab = grow(rs.slab, p.slabPerSample*batch)
	rs.sb.ensure(p.scratch, batch)
	rs.rc.batch = batch
	for v, off := range p.off {
		if off >= 0 {
			rs.bufs[v] = rs.slab[off*batch : (off+p.vals[v].elems)*batch]
		}
	}
}

// exec is the step loop: every bound kernel of steps, in order, over
// the state's buffer table.
func (p *plan[T]) exec(rs *runState[T], steps []step[T]) error {
	srcs := rs.srcs
	for si := range steps {
		st := &steps[si]
		srcs = srcs[:0]
		for _, in := range st.ins {
			srcs = append(srcs, rs.bufs[in])
		}
		if err := st.kern(&rs.rc, rs.bufs[st.out], srcs); err != nil {
			return fmt.Errorf("inference: node %q (%s): %w", st.name, st.op, err)
		}
	}
	rs.srcs = srcs
	return nil
}

// layout plans the slab by liveness over the bound steps.
func (p *plan[T]) layout() {
	var slotOff []int
	slotOff, p.arenaPerSample = planArena(p.vals, p.steps)
	p.numSlots = len(slotOff)
	p.slabPerSample = p.arenaPerSample
	p.off = make([]int, len(p.vals))
	for v := range p.vals {
		p.off[v] = -1
		if loc := p.vals[v].loc; loc.kind == locSlot {
			p.off[v] = slotOff[loc.idx]
		}
	}
}

// Name returns the compiled graph's name.
func (p *plan[T]) Name() string { return p.name }

// NumSlots returns the number of arena slabs the planner allocated —
// the peak number of simultaneously live intermediate activations.
func (p *plan[T]) NumSlots() int { return p.numSlots }

// Run executes the plan for one batch of FP32 inputs keyed by input
// name and returns the declared outputs as FP32 tensors. It is safe to
// call concurrently from multiple goroutines.
func (p *plan[T]) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	rs := p.acquire()
	defer p.release(rs)
	batch, err := p.resolve(inputs, rs.views)
	if err != nil {
		return nil, err
	}
	result := p.bindOutputs(inputs, batch, rs.outs)
	rs.size(p, batch)
	p.enter(p, rs)
	if err := p.exec(rs, p.steps); err != nil {
		return nil, err
	}
	if p.exit != nil {
		p.exit(p, rs)
	}
	return result, nil
}

// RunSingle is a convenience wrapper for graphs with exactly one input
// and one output.
func (p *plan[T]) RunSingle(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(p.inputNames) != 1 || len(p.outputNames) != 1 {
		return nil, fmt.Errorf("inference: RunSingle wants 1 input/1 output, graph has %d/%d",
			len(p.inputNames), len(p.outputNames))
	}
	outs, err := p.Run(map[string]*tensor.Tensor{p.inputNames[0]: in})
	if err != nil {
		return nil, err
	}
	return outs[p.outputNames[0]], nil
}

// RunBatch fuses several independent requests into one dispatch: inputs
// are stacked along the batch dimension, the plan runs once, and the
// outputs are split back per request. Serving layers use this to
// amortize dispatch overhead and to give the kernels larger work
// items.
func (p *plan[T]) RunBatch(batches []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	return p.runBatch(p.Run, batches)
}
