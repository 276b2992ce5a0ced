package inference

import (
	"sync"
	"sync/atomic"
)

// runCtx carries the per-call execution state kernels need: the dynamic
// batch size, the worker-pool bounds chosen at compile time and the
// planned scratch allocation for this call (see scratch.go).
type runCtx struct {
	batch     int
	workers   int
	threshold int64
	spec      scratchSpec
	scratch   *scratchBufs
	// estOps sums the estimated cost of every range this call has run,
	// inline or split; the fan-out profile reads it per step.
	estOps int64
}

// Unit costs are estimated ops at the rate the packed GEMM tiles retire
// them, 32 to 48 per ns on the host defaultParallelThreshold was
// measured on, so that the one threshold is one span of inline time
// whatever the kernel. A loop that retires fewer ops per ns states a
// proportionally larger cost per element through these weights, each
// read off the ops/ns column of TestFanOutProfileBatch8 or off a
// single-op run of the kernel at batch 8.
const (
	costElem = 32            // one element of a scalar loop, about 1 ns
	costSpan = 12            // one element of a vector element-wise span, about 3 per ns
	costExp  = 12 * costElem // one element through exp or tanh
	// A direct FP32 plane, fitted to the inline column of
	// TestFanOutProfileBatch8 (fp32 rows): three kernel calls and their
	// driver (about 75 ns); the copy-in per input element and the tile
	// epilogue per output element (about 0.3 ns each); a tap's multiply
	// and its add per output element (the multi-tap kernel retires them
	// at the GEMM rate). The seven mobilenetedge depthwise steps then
	// state 2^22.4 to 2^23.5 for 182 to 366 us inline at batch 8, 23 to
	// 38 estimated ops per ns in a run on the host's slow phase (its
	// fast one reads 123 to 317 us, 33 to 47), so 1<<23 stays about
	// 200 us of inline work.
	costPlaneCall = 3072
	costPlaneElem = 12
	costTapOp     = 1
	// The integer kernels state their own units, fitted to the inline
	// column of TestFanOutProfileBatch8 (int8 rows) so that each step's
	// estimated ops per ns lands in the band above. A direct plane: three
	// kernel calls and the compaction (about 100 ns); widen, requantize and
	// recode per output element; the PMADDWD pairs per tap and element.
	costQPlaneCall = 3200
	costQPlaneElem = 14
	costQTapOp     = 2
	// A GEMM-conv item (one B tile under every A panel): fixed costs per
	// item and per panel, the pack per B element (a staged pack replays
	// segment plans first), the tile epilogue per output; a MAC is half an op.
	costQTileCall    = 2048
	costQPanelCall   = 3072
	costQPackElem    = 1
	costQPackStaged  = 24
	costQTileOutElem = 8
	// Element-wise, per element and per plane of calls.
	costAddOperand = 10 // one table operand's gather and its share of the narrow
	costMulElem    = 5  // widen, multiply, requantize
	costMulPlane   = 256
	costPoolElem   = 1
	costPoolPlane  = 128
	costLUTElem    = 2
	costQuantize   = 20 // the entry quantizer
	costWidenElem  = 1
)

// convPlaneCost is the estimated cost of one output plane of a direct
// FP32 convolution: per input channel one copy-in and the taps, then
// the epilogue.
func convPlaneCost(g *convGeom) int64 {
	px := int64(g.outH * g.outW)
	perChannel := int64(g.inH*g.inW)*costPlaneElem + px*int64(g.kh*g.kw)*2*costTapOp
	return costPlaneCall + int64(g.icPerG)*perChannel + px*costPlaneElem
}

// qconvPlaneCost is the same for a direct integer convolution.
func qconvPlaneCost(g *convGeom) int64 {
	return costQPlaneCall + int64(g.outH*g.outW)*(costQPlaneElem+int64(g.icPerG*g.kh*g.kw)*costQTapOp)
}

// qconvTileCost is the estimated cost of one GEMM-conv item of an integer
// convolution: one nr-wide B tile packed (staged unless pointwise) and
// multiplied under panels A panels of mr rows.
func qconvTileCost(taps, mr, nr, panels int, staged bool) int64 {
	pack := int64(costQPackElem)
	if staged {
		pack = costQPackStaged
	}
	return costQTileCall + int64(taps*nr)*pack +
		int64(panels)*(costQPanelCall+int64(mr*nr)*(int64(taps)/2+costQTileOutElem))
}

// parallelFor executes fn over the index range [0, n), splitting it into
// contiguous chunks drained by a bounded pool of goroutines (the calling
// goroutine is one of the workers). unitCost is the estimated cost of
// one index in the units above; ranges whose total estimated cost falls
// below the engine's parallel threshold run inline, so small kernels
// never pay dispatch overhead. Chunks are handed out through an atomic
// cursor, which load-balances uneven work (e.g. convolution rows with
// different padding clips) without per-chunk channel traffic.
//
// Each index is processed by exactly one goroutine and fn receives
// disjoint ranges, so kernels keep their per-element accumulation order
// and produce bitwise-identical results at any worker count.
func (rc *runCtx) parallelFor(n int, unitCost int64, fn func(lo, hi int)) {
	if rc.inline(n, unitCost) {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	rc.split(n, func(_, lo, hi int) { fn(lo, hi) })
}

// inline reports whether a range of n units runs on the calling
// goroutine: one worker, one unit, or an estimated cost below the
// threshold.
func (rc *runCtx) inline(n int, unitCost int64) bool {
	rc.estOps += int64(n) * unitCost
	return rc.workers <= 1 || n <= 1 || int64(n)*unitCost < rc.threshold
}

// parallelForWorker is parallelFor with a worker ordinal: fn also
// receives the index of the pool goroutine running the chunk, always in
// [0, rc.workers), stable for the goroutine's lifetime. Kernels use it
// to claim a private region of the planned scratch (rc.f32Worker and
// friends) without locking. The calling goroutine is worker 0; the
// inline small-range path therefore always reports worker 0.
func (rc *runCtx) parallelForWorker(n int, unitCost int64, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if rc.inline(n, unitCost) {
		fn(0, 0, n)
		return
	}
	rc.split(n, fn)
}

// lowerEach runs fn(i) for every op i in [0, n) across the compile's
// workers, the per-op half of a cold compile (weight packing, filter
// quantization, code tables). Each call writes only its own slots, and
// the first error in op order is returned once all have run, so what a
// compile builds does not depend on the worker count; one worker lowers
// inline, in order.
func (c config) lowerEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	rc := runCtx{workers: c.workers}
	rc.parallelFor(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = fn(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// split fans the range [0, n), n > 1, out over the worker pool. A
// panic in any worker stops the hand-out and is raised again on the
// calling goroutine once every worker has returned, so the caller's
// recover sees it and no worker is left writing into a released run.
func (rc *runCtx) split(n int, fn func(worker, lo, hi int)) {
	w := min(rc.workers, n)
	// More chunks than workers smooths imbalance; chunk count is capped
	// so tiny units still amortize the cursor increment.
	chunks := w * 4
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	var (
		cursor int64
		once   sync.Once
		fault  any // the first worker panic
	)
	work := func(worker int) {
		defer func() {
			if p := recover(); p != nil {
				once.Do(func() { fault = p })
				atomic.StoreInt64(&cursor, int64(n))
			}
		}()
		for {
			i := int(atomic.AddInt64(&cursor, 1)) - 1
			lo := i * size
			if lo >= n {
				return
			}
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(worker, lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(i)
	}
	work(0)
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}
