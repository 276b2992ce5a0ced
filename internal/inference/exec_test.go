package inference

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// execGraph is the executor tests' model: a fused conv block, a
// residual Add over a depthwise conv (two live operands, so slabs are
// recycled) and a dense head, with a declared interface that exercises
// the whole I/O boundary: the head, the input itself, and the head again.
func execGraph() *nn.Graph {
	b := nn.NewBuilder("exec", nn.BuildOptions{Weights: true, Seed: 21})
	x := b.Input("input", 3, 12, 12)
	c := b.ConvBNAct(x, 3, 8, 3, 1, 1, nn.OpReLU)
	a := b.Add(c, b.DWConv(c, 8, 3, 1, 1))
	head := b.Dense(b.Flatten(b.GlobalAvgPool(a)), 8, 4)
	g := b.Graph(head)
	g.Outputs = []string{head, x, head}
	return g
}

// execPlan is one compiled plan behind the executor, with its element
// type erased so one table covers both kinds.
type execPlan struct {
	name     string
	run      func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
	runBatch func([]map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error)
	steps    int
	// fail rebinds step si to a kernel that returns err after recording
	// the run context it was handed; restore puts the bound kernel back.
	fail func(si int, err error, seen **runCtx) (restore func())
	// noAlias reports the first step whose destination shares slab
	// elements with one of its sources.
	noAlias func() error
}

func erasePlan[T float32 | int8](name string, p *plan[T]) execPlan {
	// span is a value's per-sample element range in the slab, empty for
	// a value that lives elsewhere.
	span := func(v int) (lo, hi int) {
		if off := p.off[v]; off >= 0 {
			return off, off + p.vals[v].elems
		}
		return 0, 0
	}
	return execPlan{name: name, run: p.Run, runBatch: p.RunBatch, steps: len(p.steps),
		fail: func(si int, err error, seen **runCtx) func() {
			kern := p.steps[si].kern
			p.steps[si].kern = func(rc *runCtx, _ []T, _ [][]T) error {
				*seen = rc
				return err
			}
			return func() { p.steps[si].kern = kern }
		},
		noAlias: func() error {
			for _, st := range p.steps {
				olo, ohi := span(st.out)
				for _, in := range st.ins {
					if ilo, ihi := span(in); ilo < ohi && olo < ihi {
						return fmt.Errorf("step %s: destination %s [%d,%d) overlaps source %s [%d,%d)",
							st.name, p.vals[st.out].name, olo, ohi, p.vals[in].name, ilo, ihi)
					}
				}
			}
			return nil
		}}
}

// compileExecPlans compiles g as each plan kind the executor runs.
func compileExecPlans(t *testing.T, g *nn.Graph, opts ...Option) []execPlan {
	t.Helper()
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := calibrateVia(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	q, err := CompileQuantized(g, schema, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return []execPlan{
		erasePlan("fp32", &mustCompile(t, g, opts...).plan),
		erasePlan("int8", &q.plan),
	}
}

func execInput(t *testing.T, g *nn.Graph, batch, seed int) map[string]*tensor.Tensor {
	t.Helper()
	in, err := nn.SyntheticInput(g, batch, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameBits fails unless two result maps hold bitwise-equal tensors.
func sameBits(want, got map[string]*tensor.Tensor) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || !g.Shape.Equal(w.Shape) {
			return fmt.Errorf("output %s missing or misshapen", name)
		}
		if d, _ := tensor.MaxAbsDiff(w, g); d != 0 {
			return fmt.Errorf("output %s diverges by %g", name, d)
		}
	}
	return nil
}

// TestExecutorOutputBinding holds the I/O boundary's output rules on
// every plan kind: an output that is an input is the caller's own
// tensor, and a name declared twice is one tensor, not two.
func TestExecutorOutputBinding(t *testing.T) {
	g := execGraph()
	head, input := g.Outputs[0], g.Outputs[1]
	for _, p := range compileExecPlans(t, g) {
		in := execInput(t, g, 3, 4)
		out, err := p.run(in)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if len(out) != 2 {
			t.Errorf("%s: %d result entries for outputs %v, want 2", p.name, len(out), g.Outputs)
		}
		if out[input] != in[input] {
			t.Errorf("%s: output %q is not the caller's input tensor", p.name, input)
		}
		if h := out[head]; h == nil || !h.Shape.Equal(tensor.Shape{3, 4}) {
			t.Fatalf("%s: head output %v", p.name, h)
		}
		nonzero := false
		for _, v := range out[head].F32 {
			nonzero = nonzero || v != 0
		}
		if !nonzero {
			t.Errorf("%s: twice-declared output %q was never written", p.name, head)
		}
	}
}

// TestExecutorRunBatchRejectsZeroRows: a zero-row member (a wire frame
// with a zero dim decodes to one) fails the fused dispatch with Run's
// own error on every plan kind instead of coming back as an empty
// success.
func TestExecutorRunBatchRejectsZeroRows(t *testing.T) {
	g := execGraph()
	for _, p := range compileExecPlans(t, g) {
		empty := map[string]*tensor.Tensor{g.Inputs[0]: tensor.New(tensor.FP32, 0, 3, 12, 12)}
		if _, err := p.run(empty); !errors.Is(err, errBatch) {
			t.Errorf("%s: Run on zero rows returned %v, want %v", p.name, err, errBatch)
		}
		outs, err := p.runBatch([]map[string]*tensor.Tensor{execInput(t, g, 1, 1), empty, execInput(t, g, 2, 2)})
		if !errors.Is(err, errBatch) {
			t.Errorf("%s: RunBatch with a zero-row member returned %d results and %v, want %v", p.name, len(outs), err, errBatch)
		}
	}
}

// TestExecutorKernelErrorReturnsState injects a kernel error at every
// step of every plan kind in turn. The failing Run must hand its pooled
// state back (the next Run draws the same one) and leave nothing behind
// in it: the next Run is bit-identical to a fresh engine's.
func TestExecutorKernelErrorReturnsState(t *testing.T) {
	// A collection between two Runs may empty the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := execGraph()
	in := execInput(t, g, 2, 6)
	fresh := compileExecPlans(t, g)
	boom := errors.New("injected kernel failure")
	for pi, p := range compileExecPlans(t, g) {
		want, err := fresh[pi].run(in)
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < p.steps; si++ {
			var failed, next *runCtx
			restore := p.fail(si, boom, &failed)
			if _, err := p.run(in); !errors.Is(err, boom) {
				t.Fatalf("%s step %d: Run returned %v, want the injected error", p.name, si, err)
			}
			restore()
			// Watch which state the next Run draws, then let it proceed.
			restore = p.fail(si, nil, &next)
			_, _ = p.run(in)
			restore()
			if !raceEnabled && next != failed {
				t.Errorf("%s step %d: the failed Run did not return its state to the pool", p.name, si)
			}
			got, err := p.run(in)
			if err != nil {
				t.Fatalf("%s step %d: Run after the failure: %v", p.name, si, err)
			}
			if err := sameBits(want, got); err != nil {
				t.Errorf("%s step %d: Run after the failure: %v", p.name, si, err)
			}
		}
	}
}

// TestExecutorRunAllMatchesRun checks that the two walks of the one
// step loop agree: on a plan with fused steps, RunAll's unfused
// expansion, bound by the first RunAll and not before, reports every
// declared output bit-identical to Run's.
func TestExecutorRunAllMatchesRun(t *testing.T) {
	g := execGraph()
	eng := mustCompile(t, g)
	in := execInput(t, g, 3, 8)
	out, err := eng.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if eng.full != nil {
		t.Fatal("Compile or Run bound RunAll's expansion")
	}
	all, err := eng.RunAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if eng.full == nil || len(eng.full.steps) == len(eng.steps) {
		t.Fatal("plan has no fused step")
	}
	for name, w := range out {
		if d, err := tensor.MaxAbsDiff(w, all[name]); err != nil || d != 0 {
			t.Errorf("output %s: RunAll differs from Run by %g (%v)", name, d, err)
		}
	}
}

// TestExecutorConcurrentMixedBatches runs one engine of every plan kind
// from eight goroutines at batch sizes 1 and 8, so pooled states change
// size between calls. Every result must be bit-identical to a fresh
// engine's, and must still be when all other runs have finished:
// declared outputs outlive the call, pooled memory does not.
func TestExecutorConcurrentMixedBatches(t *testing.T) {
	g := execGraph()
	fresh := compileExecPlans(t, g, WithWorkers(2), withParallelThreshold(1))
	for pi, p := range compileExecPlans(t, g, WithWorkers(2), withParallelThreshold(1)) {
		ins := map[int]map[string]*tensor.Tensor{1: execInput(t, g, 1, 3), 8: execInput(t, g, 8, 5)}
		want := map[int]map[string]*tensor.Tensor{}
		for batch, in := range ins {
			w, err := fresh[pi].run(in)
			if err != nil {
				t.Fatal(err)
			}
			want[batch] = w
		}
		const workers, rounds = 8, 6
		kept := make([][]map[string]*tensor.Tensor, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					batch := []int{1, 8}[(w+r)%2]
					got, err := p.run(ins[batch])
					if err == nil {
						err = sameBits(want[batch], got)
					}
					if err != nil {
						t.Errorf("%s worker %d round %d batch %d: %v", p.name, w, r, batch, err)
						return
					}
					kept[w] = append(kept[w], got)
				}
			}(w)
		}
		wg.Wait()
		for w := range kept {
			for r, got := range kept[w] {
				if err := sameBits(want[[]int{1, 8}[(w+r)%2]], got); err != nil {
					t.Errorf("%s worker %d round %d: result changed after the call: %v", p.name, w, r, err)
				}
			}
		}
	}
}

// TestPlannerNeverAliasesStepOperands holds the planner's invariant on
// every plan kind of every parity model: kernels are not in-place safe,
// so within one arena a step's destination never overlaps a source.
func TestPlannerNeverAliasesStepOperands(t *testing.T) {
	for _, g := range append(exampleGraphs(), execGraph()) {
		for _, p := range compileExecPlans(t, g) {
			if err := p.noAlias(); err != nil {
				t.Errorf("%s %s: %v", g.Name, p.name, err)
			}
		}
	}
}

// TestRunAllocations pins the per-run bookkeeping of the served mlp at
// batch 1: what is left is the result map, the output tensor and the
// closures the kernels hand the worker pool. A change that puts a
// per-run allocation back (a table, a slab, a pool header) fails here.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1})
	in := execInput(t, g, 1, 9)
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := calibrateVia(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	q, err := CompileQuantized(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
		want float64
	}{{"fp32", mustCompile(t, g).Run, 9}, {"int8", q.Run, 12}} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := c.run(in); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("%s: %v allocations per Run, want at most %v", c.name, got, c.want)
		}
		t.Logf("%s: %v allocations per Run", c.name, got)
	}
}

// follows reports whether b's storage starts where a's ends: two row
// views cut from one tensor, back to back.
func follows(a, b []float32) bool {
	return unsafe.Pointer(unsafe.SliceData(b)) == unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), 4*len(a))
}

// TestRowViewsShareStorage: the members of a fused dispatch get row
// views, not copies. Their outputs lie back to back in the one batched
// tensor of that call, which is fresh per call (bindOutputs) and so
// never the pooled run state: later runs leave them as they were. A
// declared output that is an input passes the stacked input through, so
// a member's rows of it are a view of the stack, not of the caller's
// tensor, and hold the caller's values.
func TestRowViewsShareStorage(t *testing.T) {
	g := execGraph()
	head, x := g.Outputs[0], g.Inputs[0]
	for _, p := range compileExecPlans(t, g) {
		reqs := []map[string]*tensor.Tensor{execInput(t, g, 1, 1), execInput(t, g, 2, 2), execInput(t, g, 3, 3)}
		outs, err := p.runBatch(reqs)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		alone := make([]map[string]*tensor.Tensor, len(reqs))
		for r, req := range reqs {
			if alone[r], err = p.run(req); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if err := sameBits(alone[r], outs[r]); err != nil {
				t.Errorf("%s: member %d of the fused dispatch against its own Run: %v", p.name, r, err)
			}
			if &outs[r][x].F32[0] == &req[x].F32[0] {
				t.Errorf("%s: member %d's passthrough output is the caller's tensor, want a view of the stacked input", p.name, r)
			}
			if r > 0 && !(follows(outs[r-1][head].F32, outs[r][head].F32) && follows(outs[r-1][x].F32, outs[r][x].F32)) {
				t.Errorf("%s: member %d's rows do not follow member %d's in one batched tensor", p.name, r, r-1)
			}
		}
		// The pooled state is reused by every later call, at other batch
		// sizes too; the views must not move with it.
		for i := 0; i < 4; i++ {
			if _, err := p.runBatch([]map[string]*tensor.Tensor{execInput(t, g, 2, 7+i), execInput(t, g, 4, 9+i)}); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		for r := range reqs {
			if err := sameBits(alone[r], outs[r]); err != nil {
				t.Errorf("%s: member %d's views changed under later runs: %v", p.name, r, err)
			}
		}
	}
}
