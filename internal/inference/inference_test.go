package inference

import (
	"math"
	"testing"
	"testing/quick"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// buildSingle wraps a single hand-weighted node into a runnable graph.
func buildSingle(t *testing.T, node *nn.Node, inShape []int) *Engine {
	t.Helper()
	g := nn.NewGraph("t")
	g.MustAdd(&nn.Node{Name: "in", Op: nn.OpInput, Attrs: nn.Attrs{Shape: inShape}})
	node.Name = "out"
	node.Inputs = []string{"in"}
	g.MustAdd(node)
	g.Outputs = []string{"out"}
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConv2DHandComputed(t *testing.T) {
	// 1x1x3x3 input, single 2x2 filter, stride 1, no pad.
	n := &nn.Node{Op: nn.OpConv, Attrs: nn.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1, OutC: 1}}
	n.SetWeight(nn.WeightKey, tensor.MustFromSlice([]float32{1, 0, 0, 1}, 1, 1, 2, 2))
	r := buildSingle(t, n, []int{1, 3, 3})
	in := tensor.MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	// Filter [[1,0],[0,1]] sums the main diagonal of each 2x2 window.
	want := []float32{1 + 5, 2 + 6, 4 + 8, 5 + 9}
	for i, w := range want {
		if out.F32[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.F32[i], w)
		}
	}
}

func TestConv2DPaddingAndBias(t *testing.T) {
	n := &nn.Node{Op: nn.OpConv, Attrs: nn.Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OutC: 1, Bias: true}}
	w := tensor.New(tensor.FP32, 1, 1, 3, 3)
	w.F32[4] = 1 // identity kernel
	n.SetWeight(nn.WeightKey, w)
	n.SetWeight(nn.BiasKey, tensor.MustFromSlice([]float32{10}, 1))
	r := buildSingle(t, n, []int{1, 2, 2})
	in := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 12, 13, 14}
	for i, wv := range want {
		if out.F32[i] != wv {
			t.Errorf("out[%d] = %v, want %v", i, out.F32[i], wv)
		}
	}
}

func TestConv2DStride(t *testing.T) {
	n := &nn.Node{Op: nn.OpConv, Attrs: nn.Attrs{KernelH: 1, KernelW: 1, StrideH: 2, StrideW: 2, OutC: 1}}
	n.SetWeight(nn.WeightKey, tensor.MustFromSlice([]float32{1}, 1, 1, 1, 1))
	r := buildSingle(t, n, []int{1, 4, 4})
	in := tensor.New(tensor.FP32, 1, 1, 4, 4)
	for i := range in.F32 {
		in.F32[i] = float32(i)
	}
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 2, 8, 10}
	for i, w := range want {
		if out.F32[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.F32[i], w)
		}
	}
}

func TestDepthwiseConv(t *testing.T) {
	// Two channels, each with its own 1x1 filter (x2 and x3).
	n := &nn.Node{Op: nn.OpDepthwiseConv, Attrs: nn.Attrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, OutC: 2}}
	n.SetWeight(nn.WeightKey, tensor.MustFromSlice([]float32{2, 3}, 2, 1, 1, 1))
	r := buildSingle(t, n, []int{2, 2, 2})
	in := tensor.MustFromSlice([]float32{
		1, 1, 1, 1, // channel 0
		1, 1, 1, 1, // channel 1
	}, 1, 2, 2, 2)
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out.F32[i] != 2 {
			t.Errorf("ch0[%d] = %v, want 2", i, out.F32[i])
		}
		if out.F32[4+i] != 3 {
			t.Errorf("ch1[%d] = %v, want 3", i, out.F32[4+i])
		}
	}
}

func TestDenseHandComputed(t *testing.T) {
	n := &nn.Node{Op: nn.OpDense, Attrs: nn.Attrs{OutC: 2, Bias: true}}
	n.SetWeight(nn.WeightKey, tensor.MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3))
	n.SetWeight(nn.BiasKey, tensor.MustFromSlice([]float32{10, 20}, 2))
	r := buildSingle(t, n, []int{3})
	in := tensor.MustFromSlice([]float32{1, 1, 1}, 1, 3)
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.F32[0] != 16 || out.F32[1] != 35 {
		t.Errorf("dense = %v, want [16 35]", out.F32)
	}
}

func TestBatchNorm(t *testing.T) {
	n := &nn.Node{Op: nn.OpBatchNorm, Attrs: nn.Attrs{Eps: 0}}
	n.SetWeight(nn.GammaKey, tensor.MustFromSlice([]float32{2}, 1))
	n.SetWeight(nn.BetaKey, tensor.MustFromSlice([]float32{1}, 1))
	n.SetWeight(nn.MeanKey, tensor.MustFromSlice([]float32{3}, 1))
	n.SetWeight(nn.VarKey, tensor.MustFromSlice([]float32{4}, 1))
	r := buildSingle(t, n, []int{1, 1, 2})
	in := tensor.MustFromSlice([]float32{3, 5}, 1, 1, 1, 2)
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	// y = 2*(x-3)/2 + 1 = x - 2
	if math.Abs(float64(out.F32[0]-1)) > 1e-5 || math.Abs(float64(out.F32[1]-3)) > 1e-5 {
		t.Errorf("bn = %v, want [1 3]", out.F32)
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		op   nn.OpType
		in   float32
		want float64
		tol  float64
	}{
		{nn.OpReLU, -1, 0, 0},
		{nn.OpReLU, 2, 2, 0},
		{nn.OpReLU6, 7, 6, 0},
		{nn.OpLeakyReLU, -10, -1, 1e-6}, // alpha 0.1
		{nn.OpSigmoid, 0, 0.5, 1e-6},
		{nn.OpTanh, 0, 0, 1e-6},
		{nn.OpHSigmoid, 0, 0.5, 1e-6},
		{nn.OpHSwish, 3, 3, 1e-6},
		{nn.OpHSwish, -3, 0, 1e-6},
		{nn.OpMish, 0, 0, 1e-6},
	}
	for _, c := range cases {
		n := &nn.Node{Op: c.op, Attrs: nn.Attrs{Alpha: 0.1}}
		r := buildSingle(t, n, []int{1})
		in := tensor.MustFromSlice([]float32{c.in}, 1, 1)
		// Activations accept any shape; use rank-2 for simplicity.
		out, err := r.RunSingle(in)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if math.Abs(float64(out.F32[0])-c.want) > c.tol {
			t.Errorf("%s(%v) = %v, want %v", c.op, c.in, out.F32[0], c.want)
		}
	}
}

func TestPooling(t *testing.T) {
	in := tensor.MustFromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)

	nMax := &nn.Node{Op: nn.OpMaxPool, Attrs: nn.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}}
	r := buildSingle(t, nMax, []int{1, 4, 4})
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.F32[i] != w {
			t.Errorf("maxpool[%d] = %v, want %v", i, out.F32[i], w)
		}
	}

	nAvg := &nn.Node{Op: nn.OpAvgPool, Attrs: nn.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}}
	r2 := buildSingle(t, nAvg, []int{1, 4, 4})
	out2, err := r2.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	want2 := []float32{3.5, 5.5, 11.5, 13.5}
	for i, w := range want2 {
		if out2.F32[i] != w {
			t.Errorf("avgpool[%d] = %v, want %v", i, out2.F32[i], w)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	n := &nn.Node{Op: nn.OpGlobalAvgPool}
	r := buildSingle(t, n, []int{2, 2, 2})
	in := tensor.MustFromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.F32[0] != 2.5 || out.F32[1] != 25 {
		t.Errorf("gap = %v, want [2.5 25]", out.F32)
	}
}

func TestAddMulBroadcast(t *testing.T) {
	g := nn.NewGraph("t")
	g.MustAdd(&nn.Node{Name: "x", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{2, 2, 2}}})
	g.MustAdd(&nn.Node{Name: "s", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{2, 1, 1}}})
	g.MustAdd(&nn.Node{Name: "mul", Op: nn.OpMul, Inputs: []string{"x", "s"}})
	g.Outputs = []string{"mul"}
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float32{1, 1, 1, 1, 2, 2, 2, 2}, 1, 2, 2, 2)
	s := tensor.MustFromSlice([]float32{3, 5}, 1, 2, 1, 1)
	outs, err := r.Run(map[string]*tensor.Tensor{"x": x, "s": s})
	if err != nil {
		t.Fatal(err)
	}
	out := outs["mul"]
	if out.F32[0] != 3 || out.F32[4] != 10 {
		t.Errorf("broadcast mul = %v", out.F32)
	}
}

func TestConcatAndUpsample(t *testing.T) {
	g := nn.NewGraph("t")
	g.MustAdd(&nn.Node{Name: "a", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{1, 1, 2}}})
	g.MustAdd(&nn.Node{Name: "b", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{1, 1, 2}}})
	g.MustAdd(&nn.Node{Name: "cat", Op: nn.OpConcat, Inputs: []string{"a", "b"}})
	g.MustAdd(&nn.Node{Name: "up", Op: nn.OpUpsample, Inputs: []string{"cat"}, Attrs: nn.Attrs{Scale: 2}})
	g.Outputs = []string{"up"}
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.MustFromSlice([]float32{1, 2}, 1, 1, 1, 2)
	b := tensor.MustFromSlice([]float32{3, 4}, 1, 1, 1, 2)
	outs, err := r.Run(map[string]*tensor.Tensor{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	up := outs["up"]
	if !up.Shape.Equal(tensor.Shape{1, 2, 2, 4}) {
		t.Fatalf("up shape = %v", up.Shape)
	}
	// First channel upsampled from [1 2]: rows [1 1 2 2] twice.
	want := []float32{1, 1, 2, 2, 1, 1, 2, 2}
	for i, w := range want {
		if up.F32[i] != w {
			t.Errorf("up[%d] = %v, want %v", i, up.F32[i], w)
		}
	}
}

func TestSoftmaxRowsAndFlatten(t *testing.T) {
	g := nn.NewGraph("t")
	g.MustAdd(&nn.Node{Name: "in", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{2, 1, 2}}})
	g.MustAdd(&nn.Node{Name: "flat", Op: nn.OpFlatten, Inputs: []string{"in"}})
	g.MustAdd(&nn.Node{Name: "sm", Op: nn.OpSoftmax, Inputs: []string{"flat"}})
	g.Outputs = []string{"sm"}
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.MustFromSlice([]float32{1, 1, 1, 1}, 1, 2, 1, 2)
	outs, err := r.Run(map[string]*tensor.Tensor{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	sm := outs["sm"]
	for i := range sm.F32 {
		if math.Abs(float64(sm.F32[i]-0.25)) > 1e-6 {
			t.Errorf("softmax[%d] = %v, want 0.25", i, sm.F32[i])
		}
	}
}

func TestEndToEndLeNet(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 3})
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 1, 28, 28)
	for i := range in.F32 {
		in.F32[i] = float32(i%7) / 7
	}
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{1, 10}) {
		t.Fatalf("output shape = %v", out.Shape)
	}
	var sum float64
	for _, v := range out.F32 {
		if v < 0 || math.IsNaN(float64(v)) {
			t.Fatalf("invalid probability %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestEndToEndMobileNetBlockShapes(t *testing.T) {
	// A small but complete CNN with SE block runs end to end and matches
	// the interpreter's shapes and the graph's statistics.
	g := nn.GestureNet(32, 4, nn.BuildOptions{Weights: true, Seed: 5})
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 2, 1, 32, 32)
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mustInterp(t, g).RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(ref.Shape) {
		t.Errorf("runtime shape %v != interpreter %v", out.Shape, ref.Shape)
	}
	if want := statsFloats(t, g, 2)[g.Outputs[0]]; int64(out.NumElements()) != want {
		t.Errorf("runtime output holds %d floats, Stats(2) counts %d", out.NumElements(), want)
	}
}

// statsFloats maps each node of g to its output's element count in
// g.Stats(batch).
func statsFloats(t *testing.T, g *nn.Graph, batch int) map[string]int64 {
	t.Helper()
	st, err := g.Stats(batch)
	if err != nil {
		t.Fatal(err)
	}
	floats := make(map[string]int64, len(st.Nodes))
	for _, ns := range st.Nodes {
		floats[ns.Name] = ns.ActivationBytes / 4
	}
	return floats
}

func TestRuntimeShapesMatchInference(t *testing.T) {
	// Property: for every model in the small zoo, executing the graph
	// yields the interpreter's shapes and the sizes its statistics count.
	models := []*nn.Graph{
		nn.LeNet(28, 10, nn.BuildOptions{Weights: true}),
		nn.MotorNet(128, 5, nn.BuildOptions{Weights: true}),
		nn.ArcNet(256, nn.BuildOptions{Weights: true}),
		nn.FaceEmbedNet(32, 16, nn.BuildOptions{Weights: true}),
	}
	for _, g := range models {
		r, err := Compile(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		in := tensor.New(tensor.FP32, append(tensor.Shape{1}, g.Node(g.Inputs[0]).Attrs.Shape...)...)
		for i := range in.F32 {
			in.F32[i] = float32(i%13)/13 - 0.5
		}
		ins := map[string]*tensor.Tensor{g.Inputs[0]: in}
		outs, err := r.Run(ins)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		refs, err := mustInterp(t, g).Run(ins)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		floats := statsFloats(t, g, 1)
		for name, out := range outs {
			if want := refs[name].Shape; !out.Shape.Equal(want) {
				t.Errorf("%s/%s: runtime %v != interpreter %v", g.Name, name, out.Shape, want)
			}
			if int64(out.NumElements()) != floats[name] {
				t.Errorf("%s/%s: runtime holds %d floats, Stats(1) counts %d", g.Name, name, out.NumElements(), floats[name])
			}
		}
	}
}

func TestMissingInputError(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true})
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(map[string]*tensor.Tensor{}); err == nil {
		t.Error("Run accepted missing input")
	}
	// Wrong input shape.
	bad := tensor.New(tensor.FP32, 1, 3, 28, 28)
	if _, err := r.Run(map[string]*tensor.Tensor{"input": bad}); err == nil {
		t.Error("Run accepted wrong input shape")
	}
}

func TestWeightlessGraphFails(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{}) // no weights
	if _, err := Compile(g); err == nil {
		t.Error("Compile accepted a weightless graph")
	}
	r, err := NewInterpreter(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 1, 28, 28)
	if _, err := r.RunSingle(in); err == nil {
		t.Error("execution succeeded without weights")
	}
}

func TestConvLinearityProperty(t *testing.T) {
	// Convolution is linear: conv(a*x) == a*conv(x) (no bias).
	n := &nn.Node{Op: nn.OpConv, Attrs: nn.Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OutC: 2}}
	w := tensor.New(tensor.FP32, 2, 1, 3, 3)
	for i := range w.F32 {
		w.F32[i] = float32(i)/9 - 0.5
	}
	n.SetWeight(nn.WeightKey, w)

	g := nn.NewGraph("t")
	g.MustAdd(&nn.Node{Name: "in", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{1, 5, 5}}})
	n.Name = "conv"
	n.Inputs = []string{"in"}
	g.MustAdd(n)
	g.Outputs = []string{"conv"}
	r, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed uint32, scale float32) bool {
		if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || math.Abs(float64(scale)) > 100 {
			return true
		}
		in := tensor.New(tensor.FP32, 1, 1, 5, 5)
		s := seed
		for i := range in.F32 {
			s = s*1664525 + 1013904223
			in.F32[i] = float32(s%1000)/500 - 1
		}
		out1, err := r.RunSingle(in)
		if err != nil {
			return false
		}
		scaled := tensor.Scale(in, scale)
		scaled.Shape = in.Shape.Clone()
		out2, err := r.RunSingle(scaled)
		if err != nil {
			return false
		}
		for i := range out1.F32 {
			want := out1.F32[i] * scale
			if math.Abs(float64(out2.F32[i]-want)) > 1e-3*(math.Abs(float64(want))+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
