package serve

import (
	"context"
	"errors"
	"testing"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// pairModel has two inputs of four floats: dense(a + b).
func pairModel() *nn.Graph {
	b := nn.NewBuilder("pair", nn.BuildOptions{Weights: true, Seed: 5})
	return b.Graph(b.Dense(b.Add(b.Input("a", 4), b.Input("b", 4)), 4, 3))
}

func pairInput(rows int, seed float32) *tensor.Tensor {
	t := tensor.New(tensor.FP32, rows, 4)
	for i := range t.F32 {
		t.F32[i] = seed + float32(i)/8
	}
	return t
}

// TestOneInputCheck holds inference.CheckInputs to every refusal the
// four sites it replaced made between them, and its callers to it: the
// engine's resolve (Run), its runBatch (RunBatch), the reference
// interpreter's Run and RunAll, the fleet's SubmitCtx and the front
// door's batcher.add each refuse exactly the rows the check refuses,
// with inference.ErrBadInput, and serve the rest to the bit. FP16 inputs are in the served half: the old door refused
// them only because its stacker could not convert, and the one stacker
// can.
func TestOneInputCheck(t *testing.T) {
	g := pairModel()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := inference.NewInterpreter(g)
	if err != nil {
		t.Fatal(err)
	}
	_, dep := deployGraph(t, armFleet(t, 1), cluster.Config{}, g)
	var stats batchStats
	door := newBatcher(dep, dep.InputNames(), dep.InputShapes(), BatchPolicy{}, &stats)
	good := map[string]*tensor.Tensor{"a": pairInput(1, 0), "b": pairInput(1, 1)}

	type ins = map[string]*tensor.Tensor
	for _, c := range []struct {
		name    string
		ins     ins
		refused bool
	}{
		{"one row", good, false},
		{"three rows", ins{"a": pairInput(3, 0), "b": pairInput(3, 1)}, false},
		{"an undeclared extra", ins{"a": pairInput(1, 0), "b": pairInput(1, 1), "c": pairInput(2, 2)}, false},
		{"FP16 storage", ins{"a": pairInput(2, 0).Convert(tensor.FP16), "b": pairInput(2, 1)}, false},
		{"missing input", ins{"a": pairInput(1, 0)}, true},
		{"nil tensor", ins{"a": pairInput(1, 0), "b": nil}, true},
		{"scalar", ins{"a": pairInput(1, 0), "b": tensor.New(tensor.FP32)}, true},
		{"wrong trailing dims", ins{"a": pairInput(1, 0), "b": tensor.New(tensor.FP32, 1, 5)}, true},
		{"wrong rank", ins{"a": pairInput(1, 0), "b": tensor.New(tensor.FP32, 1, 2, 2)}, true},
		{"mixed leading dims", ins{"a": pairInput(2, 0), "b": pairInput(3, 1)}, true},
		{"zero rows", ins{"a": pairInput(0, 0), "b": pairInput(0, 1)}, true},
		{"short backing slice", ins{"a": pairInput(2, 0), "b": {Shape: tensor.Shape{2, 4}, F32: make([]float32, 4)}}, true},
		{"rows that overflow", ins{"a": {Shape: tensor.Shape{1 << 62, 4}}, "b": {Shape: tensor.Shape{1 << 62, 4}}}, true},
	} {
		rows, err := inference.CheckInputs(dep.InputNames(), dep.InputShapes(), c.ins)
		if (err != nil) != c.refused || (err != nil && !errors.Is(err, inference.ErrBadInput)) {
			t.Errorf("%s: CheckInputs returned %d rows and %v, want refused %v with ErrBadInput", c.name, rows, err, c.refused)
			continue
		}
		var want *tensor.Tensor
		verdict := func(site string, outs map[string]*tensor.Tensor, err error) {
			switch {
			case c.refused && !errors.Is(err, inference.ErrBadInput):
				t.Errorf("%s: %s returned %v, want inference.ErrBadInput", c.name, site, err)
			case !c.refused && err != nil:
				t.Errorf("%s: %s refused what the check passes: %v", c.name, site, err)
			case !c.refused && want == nil:
				want = outs[g.Outputs[0]]
				if want.Shape[0] != rows {
					t.Errorf("%s: %s answered %d rows, the check read %d", c.name, site, want.Shape[0], rows)
				}
			case !c.refused:
				if d, err := tensor.MaxAbsDiff(want, outs[g.Outputs[0]]); d != 0 || err != nil {
					t.Errorf("%s: %s diverges from Run by %g (%v)", c.name, site, d, err)
				}
			}
		}
		outs, err := eng.Run(c.ins)
		verdict("resolve", outs, err)
		fused, err := eng.RunBatch([]map[string]*tensor.Tensor{good, c.ins})
		if err == nil {
			outs = fused[1]
		}
		verdict("runBatch", outs, err)
		outs, err = interp.Run(c.ins)
		verdict("Interpreter.Run", outs, err)
		outs, err = interp.RunAll(c.ins)
		verdict("Interpreter.RunAll", outs, err)
		outs, err = dep.InferCtx(context.Background(), c.ins)
		verdict("SubmitCtx", outs, err)
		done := make(chan struct{})
		door.add(&microserver.Request{Ctx: context.Background(), Ins: c.ins, Done: func(o map[string]*tensor.Tensor, e error) {
			outs, err = o, e
			close(done)
		}})
		<-done
		verdict("batcher.add", outs, err)
	}
	if st := dep.Stats(); st.Submitted != st.Completed || st.Replicas[0].Failed != 0 {
		t.Errorf("refused requests reached the fleet: submitted %d completed %d, replica failed %d", st.Submitted, st.Completed, st.Replicas[0].Failed)
	}
}
