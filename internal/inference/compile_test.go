package inference

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	modelzoo "vedliot/internal/zoo"
)

// zooGraph builds a zoo model by name.
func zooGraph(t *testing.T, name string) *nn.Graph {
	t.Helper()
	e, err := modelzoo.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.Build()
}

// TestCompileBindsOnce: a cold Compile packs each op's weights once, for
// Run. RunAll's unfused expansion is bound by the first RunAll, which
// still reports every value bit-identical to the interpreter.
func TestCompileBindsOnce(t *testing.T) {
	g := zooGraph(t, "mlp")
	weights := 0
	for _, n := range g.Nodes {
		for _, w := range n.Weights {
			weights += w.NumElements() * w.DType.Size()
		}
	}
	if !raceEnabled {
		mustCompile(t, g) // warm: one-time tables are not Compile's
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			mustCompile(t, g)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if got > 1.3*float64(weights) {
			t.Errorf("Compile(mlp) allocated %.0f bytes, %.2fx its %d weight bytes, want at most 1.3x", got, got/float64(weights), weights)
		}
		t.Logf("Compile(mlp) allocated %.0f bytes, %.2fx its weight bytes", got, got/float64(weights))
	}
	eng := mustCompile(t, g)
	in := execInput(t, g, 3, 11)
	want, err := mustInterp(t, g).RunAll(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(want, got); err != nil {
		t.Errorf("RunAll after the lazy bind: %v", err)
	}
}

// TestExecutorConcurrentFirstRunAll runs one engine from eight
// goroutines while another makes its first RunAll: the expansion is
// bound beside Runs that never see it, and every result is
// bit-identical to a fresh engine's.
func TestExecutorConcurrentFirstRunAll(t *testing.T) {
	g := execGraph()
	in := execInput(t, g, 3, 5)
	fresh := mustCompile(t, g, WithWorkers(2), withParallelThreshold(1))
	wantRun, err := fresh.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := fresh.RunAll(in)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustCompile(t, g, WithWorkers(2), withParallelThreshold(1))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				got, err := eng.Run(in)
				if err == nil {
					err = sameBits(wantRun, got)
				}
				if err != nil {
					t.Errorf("Run %d/%d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got, err := eng.RunAll(in)
			if err == nil {
				err = sameBits(wantAll, got)
			}
			if err != nil {
				t.Errorf("RunAll %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
}

// calibrate derives g's schema from two synthetic samples.
func calibrate(t *testing.T, g *nn.Graph) *nn.QuantSchema {
	t.Helper()
	samples, err := nn.SyntheticCalibration(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := calibrateVia(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// hashOutputs folds result maps into an FNV-1a sum: names in order, then
// every element's bits.
func hashOutputs(outs ...map[string]*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, out := range outs {
		names := make([]string, 0, len(out))
		for name := range out {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h.Write([]byte(name))
			for _, v := range out[name].F32 {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// dataOnly clears the host closures of lowered steps, which compare
// unequal however they were built.
func dataOnly(steps []QuantStep) []QuantStep {
	for i := range steps {
		steps[i].Island, steps[i].host = nil, nil
	}
	return steps
}

// TestLoweringDeterministic: the per-op fan-out of a cold compile builds
// the same plan at any worker count. The lowered INT8 steps of
// mobilenetedge are equal on one worker and on four, BuildQuantPlan's
// data (LeNet: mobilenetedge's Mul is not describable) is equal under
// GOMAXPROCS 1 and 4, and Compile's and CompileQuantized's engines for
// the served zoo models answer Run at batch 1, 3 and 8, RunAll and
// RunBatch with the same bits serially and across workers.
func TestLoweringDeterministic(t *testing.T) {
	mobile := zooGraph(t, "mobilenetedge")
	m, err := lowerQuantized(mobile, calibrate(t, mobile))
	if err != nil {
		t.Fatal(err)
	}
	sc := buildScaffold(m)
	var steps [][]QuantStep
	for _, workers := range []int{1, 4} {
		st, err := lowerQuantSteps(m, &sc, config{workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, dataOnly(st))
	}
	if !reflect.DeepEqual(steps[0], steps[1]) {
		t.Error("mobilenetedge: lowered INT8 steps differ between one worker and four")
	}
	lenet := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 5})
	var plans []*QuantPlan
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		p, err := BuildQuantPlan(lenet, calibrate(t, lenet))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		p.Steps = dataOnly(p.Steps)
		plans = append(plans, p)
	}
	if !reflect.DeepEqual(plans[0], plans[1]) {
		t.Error("lenet: BuildQuantPlan differs between GOMAXPROCS 1 and 4")
	}
	for _, name := range []string{"mlp", "mobilenetedge"} {
		g := zooGraph(t, name)
		schema := calibrate(t, g)
		ins := []map[string]*tensor.Tensor{execInput(t, g, 1, 1), execInput(t, g, 3, 2), execInput(t, g, 8, 3)}
		hash := func(opts ...Option) uint64 {
			eng := mustCompile(t, g, opts...)
			q, err := CompileQuantized(g, schema, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var outs []map[string]*tensor.Tensor
			for _, run := range []func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error){eng.Run, eng.RunAll, q.Run} {
				for _, in := range ins {
					out, err := run(in)
					if err != nil {
						t.Fatal(err)
					}
					outs = append(outs, out)
				}
			}
			for _, runBatch := range []func([]map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error){eng.RunBatch, q.RunBatch} {
				batched, err := runBatch(ins)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, batched...)
			}
			return hashOutputs(outs...)
		}
		serial := hash(WithWorkers(1))
		for _, opts := range [][]Option{nil, {WithWorkers(4)}} {
			if got := hash(opts...); got != serial {
				t.Errorf("%s: outputs hash to %x under %d options, %x on one worker", name, got, len(opts), serial)
			}
		}
	}
}
