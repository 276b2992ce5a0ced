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
	fresh := mustCompile(t, g)
	wantRun, err := fresh.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := fresh.RunAll(in)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustCompile(t, g)
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

// TestEngineIsSnapshotOfGraph: an engine is a snapshot of the graph at
// Compile. Overwriting every conv and dense weight tensor of the source
// graph in place afterwards changes no bit of Engine.Run or
// QuantEngine.Run, while a fresh Compile of the overwritten graph does
// see the new weights.
func TestEngineIsSnapshotOfGraph(t *testing.T) {
	for _, name := range []string{"mobilenetedge", "lenet"} {
		g := zooGraph(t, name)
		in, err := nn.SyntheticInput(g, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		q, err := CompileQuantized(g, calibrate(t, g))
		if err != nil {
			t.Fatal(err)
		}
		run := func(exe interface {
			Run(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
		}) uint64 {
			out, err := exe.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			return hashOutputs(out)
		}
		wantF, wantQ := run(eng), run(q)

		overwritten := 0
		for _, n := range g.Nodes {
			if n.Op != nn.OpConv && n.Op != nn.OpDepthwiseConv && n.Op != nn.OpDense {
				continue
			}
			for key, w := range n.Weights {
				if len(w.F32) == 0 {
					t.Fatalf("%s: %s weight %q holds no FP32 values to overwrite", name, n.Name, key)
				}
				for i, v := range w.F32 {
					w.F32[i] = 0.25 - 3*v
				}
				overwritten++
			}
		}
		if overwritten == 0 {
			t.Fatalf("%s: no conv or dense weights", name)
		}
		if got := run(eng); got != wantF {
			t.Errorf("%s: Engine.Run changed after %d weight tensors of the graph were overwritten", name, overwritten)
		}
		if got := run(q); got != wantQ {
			t.Errorf("%s: QuantEngine.Run changed after %d weight tensors of the graph were overwritten", name, overwritten)
		}
		fresh, err := Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		if run(fresh) == wantF {
			t.Errorf("%s: a fresh Compile does not see the overwritten weights", name)
		}
	}
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

// TestLoweringDeterministic: the per-op spread of a cold compile builds
// the same plan whatever the host's core count. Under GOMAXPROCS 1 and
// 4, the lowered INT8 steps of mobilenetedge are equal, BuildQuantPlan's
// data (LeNet: mobilenetedge's Mul is not describable) is equal, and
// Compile's and CompileQuantized's engines for the served zoo models
// answer Run at batch 1, 3 and 8, RunAll and RunBatch with the same
// bits.
func TestLoweringDeterministic(t *testing.T) {
	procs := []int{1, 4}
	under := func(n int, f func()) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
		f()
	}
	mobile := zooGraph(t, "mobilenetedge")
	m, err := lowerQuantized(mobile, calibrate(t, mobile))
	if err != nil {
		t.Fatal(err)
	}
	sc := buildScaffold(m)
	var steps [][]QuantStep
	lenet := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 5})
	var plans []*QuantPlan
	for _, n := range procs {
		under(n, func() {
			st, err := lowerQuantSteps(m, &sc)
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, dataOnly(st))
			p, err := BuildQuantPlan(lenet, calibrate(t, lenet))
			if err != nil {
				t.Fatal(err)
			}
			p.Steps = dataOnly(p.Steps)
			plans = append(plans, p)
		})
	}
	if !reflect.DeepEqual(steps[0], steps[1]) {
		t.Error("mobilenetedge: lowered INT8 steps differ between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(plans[0], plans[1]) {
		t.Error("lenet: BuildQuantPlan differs between GOMAXPROCS 1 and 4")
	}
	for _, name := range []string{"mlp", "mobilenetedge"} {
		g := zooGraph(t, name)
		schema := calibrate(t, g)
		ins := []map[string]*tensor.Tensor{execInput(t, g, 1, 1), execInput(t, g, 3, 2), execInput(t, g, 8, 3)}
		var hashes []uint64
		for _, n := range procs {
			var eng *Engine
			var q *QuantEngine
			under(n, func() {
				eng = mustCompile(t, g)
				if q, err = CompileQuantized(g, schema); err != nil {
					t.Fatal(err)
				}
			})
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
			hashes = append(hashes, hashOutputs(outs...))
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: outputs hash to %x compiled under GOMAXPROCS 1, %x under 4", name, hashes[0], hashes[1])
		}
	}
}

// TestExampleGraphOutputsPinned pins the bits of Engine.Run,
// Engine.RunAll and QuantEngine.Run on the example topologies and the
// island net, at batch 3. mini-yolo's INT8 run is the one that reaches
// the code-domain max pool, concat and upsample with their recodes; the
// values hold under every VEDLIOT_CPU tier and purego.
func TestExampleGraphOutputsPinned(t *testing.T) {
	want := map[string][3]uint64{
		"gesture":    {0x4c8e49f9a4b5ef3c, 0x2f9636c73e388362, 0x0f8efd737966a2de},
		"facedetect": {0x4a85a0182cfdb0fa, 0x67a960e94d4f54f3, 0x50293c5147892eaf},
		"faceembed":  {0xe86262c567b28c59, 0x557edf1351dd8ed7, 0x90ee98926847586e},
		"speechnet":  {0xed8b1d74fd0d0624, 0x70d7ada4da5a1a16, 0x44fcb217bed699b0},
		"arcnet":     {0xe21827910b16e5ad, 0x8d0a0990577fc3f0, 0x0cb45aa4176fbee6},
		"motornet":   {0xe598289fcd1239fc, 0x178ea63d01b70c75, 0x30543404829837ef},
		"motor-clf":  {0x1dff7d5196dec39a, 0x864ba668a6ff3294, 0x8e9c42e71349be14},
		"mini-yolo":  {0x92263940e84a6761, 0x2f6e0789cdbd6871, 0xc2e194c9ef789a8e},
		"island":     {0xcc1e4b82e28bc03f, 0xd0bd14c47f60e6db, 0xefa972b45149f25d},
	}
	for _, g := range append(exampleGraphs(), islandNet()) {
		in, err := nn.SyntheticInput(g, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		eng := mustCompile(t, g)
		q, err := CompileQuantized(g, calibrate(t, g))
		if err != nil {
			t.Fatal(err)
		}
		var got [3]uint64
		for i, run := range []func(map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error){eng.Run, eng.RunAll, q.Run} {
			out, err := run(in)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			got[i] = hashOutputs(out)
		}
		if got != want[g.Name] {
			t.Errorf("%s: Run, RunAll, QuantEngine.Run hash to %016x, want %016x", g.Name, got, want[g.Name])
		}
	}
}
