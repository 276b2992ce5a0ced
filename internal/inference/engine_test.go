package inference

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

func fillInput(t *tensor.Tensor, seed int) {
	for i := range t.F32 {
		t.F32[i] = float32((i*7+seed*13)%23)/23 - 0.5
	}
}

func mustCompile(t *testing.T, g *nn.Graph) *Engine {
	t.Helper()
	e, err := Compile(g)
	if err != nil {
		t.Fatalf("compile %s: %v", g.Name, err)
	}
	return e
}

func mustInterp(t *testing.T, g *nn.Graph) *Interpreter {
	t.Helper()
	it, err := NewInterpreter(g)
	if err != nil {
		t.Fatalf("interpret %s: %v", g.Name, err)
	}
	return it
}

// zoo returns small weighted graphs covering every operator family.
func zoo() []*nn.Graph {
	return []*nn.Graph{
		nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 1}),
		nn.MotorNet(128, 5, nn.BuildOptions{Weights: true, Seed: 2}),
		nn.ArcNet(256, nn.BuildOptions{Weights: true, Seed: 3}),
		nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 4}),
		nn.FaceEmbedNet(32, 16, nn.BuildOptions{Weights: true, Seed: 5}),
		nn.GestureNet(32, 4, nn.BuildOptions{Weights: true, Seed: 6}),
		nn.MLP("mlp", []int{20, 32, 7}, nn.BuildOptions{Weights: true, Seed: 7}),
		nn.MobileNetV3(32, nn.BuildOptions{Weights: true, Seed: 8}),
	}
}

func TestEngineMatchesInterpreter(t *testing.T) {
	for _, g := range zoo() {
		for _, batch := range []int{1, 3} {
			eng := mustCompile(t, g)
			it := mustInterp(t, g)
			inNode := g.Node(g.Inputs[0])
			in := tensor.New(tensor.FP32, append(tensor.Shape{batch}, inNode.Attrs.Shape...)...)
			fillInput(in, batch)
			inputs := map[string]*tensor.Tensor{g.Inputs[0]: in}
			want, err := it.Run(inputs)
			if err != nil {
				t.Fatalf("%s: interpreter: %v", g.Name, err)
			}
			got, err := eng.Run(inputs)
			if err != nil {
				t.Fatalf("%s: engine: %v", g.Name, err)
			}
			for name, w := range want {
				d, err := tensor.MaxAbsDiff(w, got[name])
				if err != nil {
					t.Fatalf("%s/%s: %v", g.Name, name, err)
				}
				if d != 0 {
					t.Errorf("%s/%s batch %d: engine diverges from interpreter by %g", g.Name, name, batch, d)
				}
			}
		}
	}
}

// TestSplitRecoversWorkerPanic: a panic while lowering an op on one of
// the compile spread's goroutines is raised again on the goroutine that
// called Compile (newEngine, newQuantEngine and BuildQuantPlan lower
// through lowerEach), where a recover can catch it, instead of ending
// the process. Each of the two ops holds its goroutine until the other
// has started, so the goroutine lowerEach started panics too.
func TestSplitRecoversWorkerPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var started sync.WaitGroup
	started.Add(2)
	got := func() (p any) {
		defer func() { p = recover() }()
		lowerEach(2, func(int) error {
			started.Done()
			started.Wait()
			panic("lowering fault")
		})
		return nil
	}()
	if got != "lowering fault" {
		t.Fatalf("Compile's caller recovered %v, want the lowering's panic", got)
	}
}

func TestEngineRunBatch(t *testing.T) {
	g := nn.GestureNet(32, 4, nn.BuildOptions{Weights: true, Seed: 11})
	eng := mustCompile(t, g)
	// Requests with different internal batch sizes.
	var reqs []map[string]*tensor.Tensor
	for i, b := range []int{1, 3, 2} {
		in := tensor.New(tensor.FP32, b, 1, 32, 32)
		fillInput(in, i+1)
		reqs = append(reqs, map[string]*tensor.Tensor{g.Inputs[0]: in})
	}
	batched, err := eng.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(batched), len(reqs))
	}
	for r, req := range reqs {
		want, err := eng.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			d, err := tensor.MaxAbsDiff(w, batched[r][name])
			if err != nil {
				t.Fatalf("req %d/%s: %v", r, name, err)
			}
			if d != 0 {
				t.Errorf("req %d/%s: batched run diverges by %g", r, name, d)
			}
		}
	}
	if _, err := eng.RunBatch(nil); err != nil {
		t.Errorf("empty RunBatch: %v", err)
	}
}

func TestEngineGoroutineSafety(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 12})
	eng := mustCompile(t, g)
	in := tensor.New(tensor.FP32, 1, 1, 28, 28)
	fillInput(in, 5)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				out, err := eng.RunSingle(in)
				if err != nil {
					errs <- err
					return
				}
				if d, _ := tensor.MaxAbsDiff(want, out); d != 0 {
					errs <- fmt.Errorf("concurrent run diverged by %g", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineArenaPlanReusesSlots(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 13})
	eng := mustCompile(t, g)
	intermediates := 0
	var sum int
	for _, v := range eng.vals {
		if v.loc.kind == locSlot {
			intermediates++
			sum += v.elems
		}
	}
	if eng.NumSlots() >= intermediates {
		t.Errorf("planner allocated %d slots for %d intermediates (no reuse)", eng.NumSlots(), intermediates)
	}
	if eng.ArenaFloatsPerSample() >= sum {
		t.Errorf("arena %d floats >= sum of intermediates %d (no reuse)", eng.ArenaFloatsPerSample(), sum)
	}
}

func TestEngineRunAllMatchesInterpreter(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 14})
	eng := mustCompile(t, g)
	it := mustInterp(t, g)
	in := tensor.New(tensor.FP32, 1, 1, 28, 28)
	fillInput(in, 3)
	inputs := map[string]*tensor.Tensor{g.Inputs[0]: in}
	want, err := it.RunAll(inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunAll(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunAll returned %d activations, want %d", len(got), len(want))
	}
	for name, w := range want {
		d, err := tensor.MaxAbsDiff(w, got[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d != 0 {
			t.Errorf("%s: RunAll diverges by %g", name, d)
		}
	}
}

// TestLoweringDropsIdentitiesAndDeadNodes holds the graph cleanup the
// lowering does on every compile: an identity feeding a softmax is
// dropped and the softmax reads the identity's input, RunAll still
// reports the identity's activation through its alias, an identity that
// is a declared output stays, and a branch no output reads is absent
// from the lowered module.
func TestLoweringDropsIdentitiesAndDeadNodes(t *testing.T) {
	g := nn.NewGraph("cleanup")
	g.MustAdd(&nn.Node{Name: "in", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{4}}})
	g.MustAdd(&nn.Node{Name: "id", Op: nn.OpIdentity, Inputs: []string{"in"}})
	g.MustAdd(&nn.Node{Name: "sm", Op: nn.OpSoftmax, Inputs: []string{"id"}})
	g.MustAdd(&nn.Node{Name: "out", Op: nn.OpIdentity, Inputs: []string{"sm"}})
	g.MustAdd(&nn.Node{Name: "dead", Op: nn.OpReLU, Inputs: []string{"in"}})
	g.Inputs = []string{"in"}
	g.Outputs = []string{"out"}

	m, _, err := ir.Lower(g, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[string]*ir.Op, len(m.Ops))
	for _, op := range m.Ops {
		ops[op.Name] = op
	}
	if ops["id"] != nil {
		t.Error("the identity feeding the softmax survived the lowering")
	}
	if sm := ops["sm"]; sm == nil || m.Values[sm.Ins[0]].Name != "in" {
		t.Error("the softmax does not read the dropped identity's input")
	}
	if out := ops["out"]; out == nil || out.Kind != nn.OpIdentity {
		t.Error("the identity that is a declared output was dropped")
	}
	if ops["dead"] != nil {
		t.Error("the branch no output reads survived the lowering")
	}

	eng := mustCompile(t, g)
	in := tensor.New(tensor.FP32, 2, 4)
	fillInput(in, 1)
	acts, err := eng.RunAll(map[string]*tensor.Tensor{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := tensor.MaxAbsDiff(in, acts["id"]); d != 0 || err != nil {
		t.Errorf("RunAll reports the dropped identity %v off its input (%v)", d, err)
	}
	if d, err := tensor.MaxAbsDiff(acts["sm"], acts["out"]); d != 0 || err != nil {
		t.Errorf("the output identity reads %v off the softmax (%v)", d, err)
	}
}

func TestEngineInputValidation(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 15})
	eng := mustCompile(t, g)
	if _, err := eng.Run(map[string]*tensor.Tensor{}); err == nil {
		t.Error("engine accepted missing input")
	}
	bad := tensor.New(tensor.FP32, 1, 3, 28, 28)
	if _, err := eng.Run(map[string]*tensor.Tensor{"input": bad}); err == nil {
		t.Error("engine accepted wrong input shape")
	}
}

func TestEngineBatchMismatch(t *testing.T) {
	g := nn.NewGraph("two-in")
	g.MustAdd(&nn.Node{Name: "a", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{4}}})
	g.MustAdd(&nn.Node{Name: "b", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{4}}})
	g.MustAdd(&nn.Node{Name: "sum", Op: nn.OpAdd, Inputs: []string{"a", "b"}})
	g.Outputs = []string{"sum"}
	eng := mustCompile(t, g)
	a := tensor.New(tensor.FP32, 2, 4)
	b := tensor.New(tensor.FP32, 3, 4)
	if _, err := eng.Run(map[string]*tensor.Tensor{"a": a, "b": b}); err == nil {
		t.Error("engine accepted mismatched input batches")
	}
}

func TestEngineOutputConsumedDownstream(t *testing.T) {
	// A declared output that also feeds another node must remain valid
	// (outputs never live in recycled arena slots).
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 16})
	x := b.Input("input", 1, 8, 8)
	c := b.Conv(x, 1, 2, 3, 1, 1)
	r := b.Act(c, nn.OpReLU)
	g := b.Graph(c, r)
	eng := mustCompile(t, g)
	it := mustInterp(t, g)
	in := tensor.New(tensor.FP32, 1, 1, 8, 8)
	fillInput(in, 8)
	inputs := map[string]*tensor.Tensor{"input": in}
	want, err := it.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if d, _ := tensor.MaxAbsDiff(w, got[name]); d != 0 {
			t.Errorf("%s: diverges by %g", name, d)
		}
	}
}

func TestEngineQuantizedInputs(t *testing.T) {
	// Non-FP32 inputs are converted once at entry, like the interpreter
	// converts on use.
	g := nn.MLP("mlp", []int{8, 4}, nn.BuildOptions{Weights: true, Seed: 17})
	eng := mustCompile(t, g)
	it := mustInterp(t, g)
	in := tensor.New(tensor.FP32, 1, 8)
	fillInput(in, 2)
	h := in.Convert(tensor.FP16)
	want, err := it.Run(map[string]*tensor.Tensor{"input": h})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(map[string]*tensor.Tensor{"input": h})
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if d, _ := tensor.MaxAbsDiff(w, got[name]); d != 0 {
			t.Errorf("%s: diverges by %g", name, d)
		}
	}
}

func TestCPUBackendInterface(t *testing.T) {
	var b Backend = CPUBackend{}
	if b.Name() == "" {
		t.Error("backend has no name")
	}
	g := nn.MLP("mlp", []int{4, 2}, nn.BuildOptions{Weights: true, Seed: 19})
	exe, err := b.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 4)
	fillInput(in, 1)
	out, err := exe.Run(map[string]*tensor.Tensor{"input": in})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out[g.Outputs[0]].F32 {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("softmax output sums to %v", sum)
	}
}
