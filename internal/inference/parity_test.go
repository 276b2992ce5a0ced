package inference

import (
	"fmt"
	"math"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// parityTol is the engine-vs-interpreter tolerance for the example
// topologies; in practice the divergence is exactly zero because the
// engine preserves per-element accumulation order.
const parityTol = 1e-5

// exampleGraphs builds every topology examples/quickstart and the §V
// use-case studies of internal/bench (mirror, arc, motor, paeb)
// instantiate, with materialized weights and — where a study uses a
// survey-scale configuration — reduced input sizes so the test stays
// fast. The paeb study models offload of a YoloV4-class detector; its
// stand-in here is a miniature CSP/PANet-style detector exercising the
// same operator patterns (Mish/LeakyReLU, SPP max-pool stack, concat,
// upsample, multi-scale heads) at test scale.
func exampleGraphs() []*nn.Graph {
	return []*nn.Graph{
		// examples/quickstart
		nn.GestureNet(64, 8, nn.BuildOptions{Weights: true, Seed: 1}),
		// mirror study (Fig. 5 pipeline stages)
		nn.FaceDetectNet(96, nn.BuildOptions{Weights: true, Seed: 2}),
		nn.FaceEmbedNet(64, 128, nn.BuildOptions{Weights: true, Seed: 3}),
		nn.SpeechNet(100, 26, 29, nn.BuildOptions{Weights: true, Seed: 4}),
		// arc study
		nn.ArcNet(256, nn.BuildOptions{Weights: true, Seed: 5}),
		// motor study
		nn.MotorNet(128, 5, nn.BuildOptions{Weights: true, Seed: 6}),
		nn.MLP("motor-clf", []int{128, 64, 5}, nn.BuildOptions{Weights: true, Seed: 7}),
		// paeb study (YoloV4-class topology at test scale)
		miniYolo(64, 4),
	}
}

// miniYolo builds a compact YoloV4-shaped detector: a Mish backbone
// with two downsampling stages, an SPP-style pooling stack, and two
// detection heads joined through upsample + concat — the operator mix
// of nn.YoloV4 without its 64M survey-scale parameters.
func miniYolo(inputSize, numClasses int) *nn.Graph {
	b := nn.NewBuilder("mini-yolo", nn.BuildOptions{Weights: true, Seed: 8})
	headC := 3 * (5 + numClasses)
	x := b.Input("input", 3, inputSize, inputSize)
	x = b.ConvBNAct(x, 3, 8, 3, 1, 1, nn.OpMish)
	x = b.ConvBNAct(x, 8, 16, 3, 2, 1, nn.OpMish)
	route := b.ConvBNAct(x, 16, 16, 3, 1, 1, nn.OpMish) // stride-2 feature
	x = b.ConvBNAct(route, 16, 32, 3, 2, 1, nn.OpMish)  // stride-4 feature
	// SPP: parallel max-pools concatenated.
	p1 := b.MaxPool(x, 5, 1, 2)
	p2 := b.MaxPool(x, 9, 1, 4)
	x = b.Concat(p1, p2, x)
	x = b.ConvBNAct(x, 96, 32, 1, 1, 0, nn.OpLeakyReLU)
	// Coarse head.
	h2 := b.Conv(x, 32, headC, 1, 1, 0)
	// Fine head via top-down path.
	up := b.ConvBNAct(x, 32, 16, 1, 1, 0, nn.OpLeakyReLU)
	up = b.Upsample(up, 2)
	fine := b.Concat(b.ConvBNAct(route, 16, 16, 1, 1, 0, nn.OpLeakyReLU), up)
	fine = b.ConvBNAct(fine, 32, 16, 3, 1, 1, nn.OpLeakyReLU)
	h1 := b.Conv(fine, 16, headC, 1, 1, 0)
	return b.Graph(h1, h2)
}

// withPrecision returns a deep copy of g whose weights are stored at
// the given precision. The engine pre-dequantizes at compile time; the
// interpreter dequantizes on the fly — both must agree.
func withPrecision(g *nn.Graph, dt tensor.DType) *nn.Graph {
	if dt == tensor.FP32 {
		return g
	}
	c := g.Clone()
	for _, n := range c.Nodes {
		for key, w := range n.Weights {
			n.SetWeight(key, w.Convert(dt))
		}
	}
	return c
}

// multiHeadNet builds a two-input, three-output graph: two trunks with
// fused conv→BN→act epilogues joined by an add, one head reading the
// shared trunk, plus a head that is itself a fused producer's output
// and an output that is also consumed downstream. This pins the fused
// FP32 path on the shapes the single-head example graphs miss.
func multiHeadNet() *nn.Graph {
	b := nn.NewBuilder("multi-head", nn.BuildOptions{Weights: true, Seed: 21})
	left := b.Input("left", 1, 16, 16)
	right := b.Input("right", 1, 16, 16)
	l := b.ConvBNAct(left, 1, 8, 3, 1, 1, nn.OpReLU)
	r := b.ConvBNAct(right, 1, 8, 3, 1, 1, nn.OpHSwish)
	trunk := b.Add(l, r)
	headA := b.ConvBNAct(trunk, 8, 8, 3, 1, 1, nn.OpReLU)
	headB := b.Conv(trunk, 8, 4, 1, 1, 0)
	// headA is an output AND feeds headC: its value must stay valid.
	headC := b.ConvBNAct(headA, 8, 4, 3, 2, 1, nn.OpReLU6)
	return b.Graph(headA, headB, headC)
}

// islandNet builds a graph with a mid-graph softmax between dense
// layers: in the INT8 plan the softmax is an FP32 island between
// integer steps, and in the FP32 plan the dense producers before and
// after it carry fused activations.
func islandNet() *nn.Graph {
	b := nn.NewBuilder("island", nn.BuildOptions{Weights: true, Seed: 22})
	x := b.Input("input", 12)
	x = b.Dense(x, 12, 16)
	x = b.Act(x, nn.OpReLU)
	x = b.Softmax(x) // mid-graph: island in the INT8 plan
	x = b.Dense(x, 16, 6)
	x = b.Act(x, nn.OpTanh)
	x = b.Dense(x, 6, 4)
	x = b.Softmax(x)
	return b.Graph(x)
}

// exoticChainNet fuses the epilogue tails no example topology has: a
// second batch-norm behind an activation (the per-channel closures) on
// a GEMM convolution's C tile and on a pointwise plane, and two
// activations composed behind the affine on a depthwise plane, none of
// them a tail the tile epilogue has a vector body for.
func exoticChainNet() *nn.Graph {
	b := nn.NewBuilder("exotic-chains", nn.BuildOptions{Weights: true, Seed: 12})
	x := b.Input("input", 3, 12, 12)
	x = b.Act(b.BN(x, 3), nn.OpLeakyReLU) // a batch-norm producer with a composed tail
	x = b.Act(b.BN(b.Act(b.BN(b.Conv(x, 3, 8, 3, 1, 1), 8), nn.OpReLU6), 8), nn.OpTanh)
	x = b.Act(b.Act(b.BN(b.DWConv(x, 8, 3, 2, 1), 8), nn.OpLeakyReLU), nn.OpSigmoid)
	x = b.BN(b.Act(b.Conv(x, 8, 4, 1, 1, 0), nn.OpReLU6), 4)
	x = b.Act(b.Dense(b.Flatten(x), 4*6*6, 6), nn.OpSigmoid)
	return b.Graph(x)
}

// denseConvNet gives the dense-shaped conv, a 1x1 kernel over the 1x1
// plane a global pool leaves (squeeze-excite's convs), every form it
// takes: with a bias and a fused activation (squeeze-excite's reduce),
// without a bias and with a fused batch norm and hard sigmoid, and bare
// with and without a bias as pooled heads.
func denseConvNet() *nn.Graph {
	b := nn.NewBuilder("dense-conv", nn.BuildOptions{Weights: true, Seed: 23})
	x := b.Input("input", 3, 8, 8)
	x = b.GlobalAvgPool(b.ConvBNAct(x, 3, 12, 3, 1, 1, nn.OpReLU))
	s := b.Act(b.Conv(x, 12, 8, 1, 1, 0), nn.OpReLU)
	s = b.Act(b.BN(b.ConvNB(s, 8, 12, 1, 1, 0), 12), nn.OpHSigmoid)
	return b.Graph(s, b.Conv(x, 12, 5, 1, 1, 0), b.ConvNB(x, 12, 3, 1, 1, 0))
}

// TestEngineParityOnExampleGraphs compiles every example topology at
// FP32, FP16 and INT8 weight precision and checks Engine.Run against
// the legacy interpreter within parityTol.
func TestEngineParityOnExampleGraphs(t *testing.T) {
	for _, base := range append(exampleGraphs(), multiHeadNet(), islandNet(), exoticChainNet(), denseConvNet()) {
		for _, dt := range []tensor.DType{tensor.FP32, tensor.FP16, tensor.INT8} {
			t.Run(fmt.Sprintf("%s/%s", base.Name, dt), func(t *testing.T) {
				g := withPrecision(base, dt)
				eng, err := Compile(g)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				it, err := NewInterpreter(g)
				if err != nil {
					t.Fatalf("interpreter: %v", err)
				}
				inputs := make(map[string]*tensor.Tensor, len(g.Inputs))
				for i, name := range g.Inputs {
					in := tensor.New(tensor.FP32, append(tensor.Shape{2}, g.Node(name).Attrs.Shape...)...)
					fillInput(in, int(dt)+1+i)
					inputs[name] = in
				}
				want, err := it.Run(inputs)
				if err != nil {
					t.Fatalf("interpreter run: %v", err)
				}
				got, err := eng.Run(inputs)
				if err != nil {
					t.Fatalf("engine run: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("engine produced %d outputs, interpreter %d", len(got), len(want))
				}
				for name, w := range want {
					d, err := tensor.MaxAbsDiff(w, got[name])
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if d > parityTol {
						t.Errorf("output %s diverges by %g (tol %g)", name, d, parityTol)
					}
				}
			})
		}
	}
}

// TestFP16StorageBitwise pins what FP16 storage means to the FP32
// plan: binary16 weights are dequantized once at bind time, so a graph
// with FP16-stored weights runs bit for bit like the same graph with
// those weights dequantized before compile. One layer per weight
// reader: the conv GEMM form, the depthwise plane form and the dense
// GEMM, at a ragged panel and a full one.
func TestFP16StorageBitwise(t *testing.T) {
	build := map[string]func(b *nn.Builder, x string) string{
		"conv":      func(b *nn.Builder, x string) string { return b.Conv(x, 8, 12, 3, 1, 1) },
		"depthwise": func(b *nn.Builder, x string) string { return b.DWConv(x, 8, 3, 2, 1) },
		"dense":     func(b *nn.Builder, x string) string { return b.Dense(b.Flatten(x), 8*9*9, 24) },
	}
	for name, layer := range build {
		t.Run(name, func(t *testing.T) {
			b := nn.NewBuilder(name, nn.BuildOptions{Weights: true, Seed: 5})
			half := withPrecision(b.Graph(layer(b, b.Input("input", 8, 9, 9))), tensor.FP16)
			wide := half.Clone()
			for _, n := range wide.Nodes {
				for key, w := range n.Weights {
					n.SetWeight(key, w.Convert(tensor.FP32))
				}
			}
			got, want := mustCompile(t, half), mustCompile(t, wide)
			for _, batch := range []int{1, 8} {
				in := tensor.New(tensor.FP32, batch, 8, 9, 9)
				fillInput(in, batch)
				inputs := map[string]*tensor.Tensor{"input": in}
				g, err := got.Run(inputs)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.Run(inputs)
				if err != nil {
					t.Fatal(err)
				}
				for oname, wt := range w {
					for i, v := range wt.F32 {
						if gv := g[oname].F32[i]; math.Float32bits(gv) != math.Float32bits(v) {
							t.Fatalf("batch %d output %s[%d]: fp16-stored %g, pre-dequantized %g", batch, oname, i, gv, v)
						}
					}
				}
			}
		})
	}
}

// TestEngineRunAllCoversFusedValues checks that RunAll on a fused plan
// still materializes every graph node's activation — including the
// pre-epilogue values fusion eliminates from Run — bitwise equal to the
// interpreter. Calibration depends on this.
func TestEngineRunAllCoversFusedValues(t *testing.T) {
	for _, g := range []*nn.Graph{multiHeadNet(), islandNet()} {
		eng, err := Compile(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		it, err := NewInterpreter(g)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make(map[string]*tensor.Tensor, len(g.Inputs))
		for i, name := range g.Inputs {
			in := tensor.New(tensor.FP32, append(tensor.Shape{2}, g.Node(name).Attrs.Shape...)...)
			fillInput(in, 3+i)
			inputs[name] = in
		}
		want, err := it.RunAll(inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunAll(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: RunAll returned %d activations, want %d", g.Name, len(got), len(want))
		}
		for name, w := range want {
			d, err := tensor.MaxAbsDiff(w, got[name])
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, name, err)
			}
			if d != 0 {
				t.Errorf("%s/%s: RunAll diverges by %g", g.Name, name, d)
			}
		}
	}
}

// TestQuantEngineIslandGraph lowers the mid-graph-softmax topology to
// the INT8 plan: both softmax ops must run as FP32 islands, the fused
// dense+activation steps around them stay native, and outputs track the
// FP32 engine within INT8 resolution.
func TestQuantEngineIslandGraph(t *testing.T) {
	g := islandNet()
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
	if got := q.FallbackSteps(); got != 2 {
		t.Errorf("fallback steps = %d, want 2 (both softmax ops)", got)
	}
	ref, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in, err := nn.SyntheticInput(g, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range g.Outputs {
		d, err := tensor.MaxAbsDiff(want[out], got[out])
		if err != nil {
			t.Fatal(err)
		}
		// The final softmax keeps values in [0,1]; INT8 resolution
		// bounds the divergence well under 0.1.
		if d > 0.1 {
			t.Errorf("output %s diverges by %g", out, d)
		}
	}
}

// calibrateVia derives an activation schema exactly as optimize.
// Calibrate does, without importing optimize (the inference package
// cannot): compile, RunAll per sample, fold per-value ranges into
// affine INT8 mappings.
func calibrateVia(g *nn.Graph, samples []map[string]*tensor.Tensor) (*nn.QuantSchema, error) {
	eng, err := Compile(g)
	if err != nil {
		return nil, err
	}
	ranges := make(map[string][2]float32)
	for _, sample := range samples {
		acts, err := eng.RunAll(sample)
		if err != nil {
			return nil, err
		}
		for name, tt := range acts {
			lo, hi := tt.MinMax()
			r, ok := ranges[name]
			if !ok {
				ranges[name] = [2]float32{lo, hi}
				continue
			}
			if lo < r[0] {
				r[0] = lo
			}
			if hi > r[1] {
				r[1] = hi
			}
			ranges[name] = r
		}
	}
	s := nn.NewQuantSchema(g.Name)
	for name, r := range ranges {
		s.Set(name, tensor.AffineParams(r[0], r[1]))
	}
	return s, nil
}
