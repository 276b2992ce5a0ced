package inference

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// lowerEach runs fn(i) for every op i in [0, n), the per-op half of a
// cold compile (weight packing, filter quantization, code tables),
// spread over runtime.GOMAXPROCS(0) goroutines that claim ops one at a
// time; the calling goroutine is one of them. Each call writes only its
// own slots, and the first error in op order is returned once all have
// run, so what a compile builds does not depend on the spread. A panic
// in any call stops the hand-out and is raised again on the caller once
// every goroutine has returned, so the caller's recover sees it.
func lowerEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		next  atomic.Int64
		once  sync.Once
		fault any // the first panic
		wg    sync.WaitGroup
	)
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				once.Do(func() { fault = p })
				next.Store(int64(n))
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scaffold is the executable-plan skeleton every plan shares: the
// lowered module's live values mapped onto plan value slots, the
// declared interface resolved to those slots (with its I/O boundary,
// the embedded signature), and the alias table for debug executions.
// Everything here is derived deterministically from the module.
type scaffold struct {
	signature
	name       string
	vals       []value
	valOf      []int // module value id -> plan val index, -1 if unused
	inputVals  []int
	outputVals []int
	aliases    map[string]int
}

// buildScaffold maps a lowered module onto plan values with the
// location policy every plan uses: inputs stay in caller tensors,
// declared outputs get dedicated buffers (they leave the call), and
// everything else is left for the arena planner.
func buildScaffold(m *ir.Module) scaffold {
	live := m.Live()
	sc := scaffold{
		name:    m.Name,
		valOf:   make([]int, len(m.Values)),
		aliases: make(map[string]int, len(m.Aliases)),
	}
	for i := range sc.valOf {
		sc.valOf[i] = -1
	}
	for _, v := range m.Values {
		if !live[v.ID] {
			continue
		}
		sc.valOf[v.ID] = len(sc.vals)
		sc.vals = append(sc.vals, value{name: v.Name, per: v.Shape, elems: v.Elems, qp: v.QP})
	}
	for _, id := range m.Inputs {
		ev := sc.valOf[id]
		sc.vals[ev].loc = location{locInput, len(sc.inputVals)}
		sc.inputNames = append(sc.inputNames, m.Values[id].Name)
		sc.inPer = append(sc.inPer, sc.vals[ev].per)
		sc.inputVals = append(sc.inputVals, ev)
	}
	for i, o := range m.Outputs {
		ev := sc.valOf[o.Value]
		if sc.vals[ev].loc.kind == locUnassigned {
			sc.vals[ev].loc = location{locOutput, i}
		}
		// The value's location names where this output comes from: the
		// input it is, or the first declared output that carries it.
		loc, fromInput := sc.vals[ev].loc, -1
		if loc.kind == locInput {
			fromInput = loc.idx
		}
		sc.outputNames = append(sc.outputNames, o.Name)
		sc.outPer = append(sc.outPer, sc.vals[ev].per)
		sc.outputVals = append(sc.outputVals, ev)
		sc.outInput = append(sc.outInput, fromInput)
		sc.outOwner = append(sc.outOwner, loc.idx)
	}
	for name, id := range m.Aliases {
		if ev := sc.valOf[id]; ev >= 0 {
			sc.aliases[name] = ev
		}
	}
	return sc
}

// nodeFromOp adapts an IR op to the nn.Node surface the kernel binders
// read (op kind, attributes, weights).
func nodeFromOp(op *ir.Op) *nn.Node {
	return &nn.Node{Name: op.Name, Op: op.Kind, Attrs: op.Attrs, Weights: op.Weights}
}

// nodeFromFused reconstructs the standalone node a fused epilogue stage
// was absorbed from (RunAll's unfused expansion re-binds these).
func nodeFromFused(f *ir.FusedOp) *nn.Node {
	return &nn.Node{Name: f.Name, Op: f.Kind, Attrs: f.Attrs, Weights: f.Weights}
}

// buildEpilogue compiles an op's fused chain into the structured
// epilogue the FP32 kernels inline: an optional leading per-channel
// affine (the folded batch-norm), then an activation tail — one
// activation the tile epilogue has a vector body for, a composed
// channel-independent function, or per-channel closures for exotic
// chains with a second batch-norm. Each stage is applied in chain order
// to the same float32 the unfused step would read, so results are
// bitwise identical to the unfused plan. channels is the producer's
// output channel count (conv/batch-norm) or feature count (dense).
func buildEpilogue(op *ir.Op, channels int) (*epilogue, error) {
	if len(op.Fused) == 0 {
		return nil, nil
	}
	type stage struct {
		kind         nn.OpType
		act          func(float32) float32
		scale, shift []float32
	}
	stages := make([]stage, len(op.Fused))
	for i := range op.Fused {
		f := &op.Fused[i]
		if f.Kind == nn.OpBatchNorm {
			scale, shift, err := bnScaleShift(nodeFromFused(f), channels)
			if err != nil {
				return nil, err
			}
			stages[i] = stage{kind: f.Kind, scale: scale, shift: shift}
			continue
		}
		fn, err := activationFn(nodeFromFused(f))
		if err != nil {
			return nil, err
		}
		stages[i] = stage{kind: f.Kind, act: fn}
	}
	ep := &epilogue{}
	rest := stages
	if rest[0].act == nil {
		ep.scale, ep.shift = rest[0].scale, rest[0].shift
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return ep, nil
	}
	perChannel := false
	for _, st := range rest {
		if st.act == nil {
			perChannel = true
		}
	}
	if !perChannel {
		// Channel-independent activations compose into one function.
		ep.fn = rest[0].act
		if len(rest) == 1 {
			ep.act = vecAct(rest[0].kind)
		}
		for _, st := range rest[1:] {
			prev, next := ep.fn, st.act
			ep.fn = func(v float32) float32 { return next(prev(v)) }
		}
		return ep, nil
	}
	tail := rest
	ep.fnCh = make([]func(float32) float32, channels)
	for ch := 0; ch < channels; ch++ {
		c := ch
		ep.fnCh[ch] = func(v float32) float32 {
			for _, st := range tail {
				if st.act != nil {
					v = st.act(v)
				} else {
					v = v*st.scale[c] + st.shift[c]
				}
			}
			return v
		}
	}
	return ep, nil
}

// buildEpilogueLUTs composes an op's fused chain into one int8 code
// table per output channel for the quantized kernels: the producer
// requantizes to its own (first Pre) mapping and the table recodes from
// there through each stage's exact lookup — the same tables the unfused
// steps would apply one by one, composed, so results are bitwise
// identical. A chain of activations alone is one table every channel
// points at; from the first batch-norm stage on the op holds one slab of
// per-channel tables and later stages compose into it in place. Returns
// nil for an unfused op.
func buildEpilogueLUTs(m *ir.Module, op *ir.Op, channels int) ([]*[256]int8, error) {
	if len(op.Fused) == 0 {
		return nil, nil
	}
	// chain is the stages so far, composed: one table while none has
	// depended on the channel, one per channel after.
	var chain [][256]int8
	prevQ := m.Values[op.Fused[0].Pre].QP
	for i := range op.Fused {
		f := &op.Fused[i]
		outQ := m.Values[op.FusedOut(i)].QP
		var stage [][256]int8
		if f.Kind == nn.OpBatchNorm {
			scale, shift, err := bnScaleShift(nodeFromFused(f), channels)
			if err != nil {
				return nil, err
			}
			stage = buildAffineLUTs(prevQ, outQ, scale, shift)
		} else {
			fn, err := activationFn(nodeFromFused(f))
			if err != nil {
				return nil, err
			}
			stage = [][256]int8{*buildLUT(prevQ, outQ, fn)}
		}
		switch {
		case chain == nil:
			chain = stage
		case len(stage) > len(chain):
			// The first per-channel stage: the shared prefix fans out.
			for ch := range stage {
				tbl := chain[0]
				composeLUT(&tbl, &stage[ch])
				stage[ch] = tbl
			}
			chain = stage
		default:
			for ch := range chain {
				composeLUT(&chain[ch], &stage[ch%len(stage)])
			}
		}
		prevQ = outQ
	}
	luts := make([]*[256]int8, channels)
	for ch := range luts {
		luts[ch] = &chain[ch%len(chain)]
	}
	return luts, nil
}

// stepOps is the module's ops that become plan steps, in step order:
// all but the declared inputs.
func stepOps(m *ir.Module) []*ir.Op {
	ops := make([]*ir.Op, 0, len(m.Ops))
	for _, op := range m.Ops {
		if op.Kind != nn.OpInput {
			ops = append(ops, op)
		}
	}
	return ops
}

// opOperands resolves an op's input value ids and per-sample shapes in
// plan terms.
func opOperands(sc *scaffold, op *ir.Op) (ins []int, inPer []tensor.Shape) {
	ins = make([]int, len(op.Ins))
	inPer = make([]tensor.Shape, len(op.Ins))
	for i, in := range op.Ins {
		ins[i] = sc.valOf[in]
		inPer[i] = sc.vals[ins[i]].per
	}
	return ins, inPer
}

// channelCount is the per-sample leading dimension an epilogue indexes
// by: output channels for NCHW producers, features for dense.
func channelCount(per tensor.Shape) int {
	if len(per) == 0 {
		return 1
	}
	return per[0]
}

// compileError wraps a kernel-binding failure with the op identity, the
// shared error shape of both compilers.
func compileError(op *ir.Op, quantized bool, err error) error {
	kind := "compile"
	if quantized {
		kind = "compile quantized"
	}
	return fmt.Errorf("inference: %s node %q (%s): %w", kind, op.Name, op.Kind, err)
}
