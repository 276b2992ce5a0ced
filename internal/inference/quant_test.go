package inference_test

import (
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// calibInput builds a deterministic pseudo-random input for the graph's
// single input node.
func calibInput(t testing.TB, g *nn.Graph, batch, seed int) map[string]*tensor.Tensor {
	t.Helper()
	in, err := nn.SyntheticInput(g, batch, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func calibrate(t testing.TB, g *nn.Graph) *nn.QuantSchema {
	t.Helper()
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// argmaxRows returns the per-sample argmax of a [N, classes] tensor.
func argmaxRows(t *tensor.Tensor) []int {
	n, f := t.Shape[0], t.Shape[1]
	out := make([]int, n)
	for b := 0; b < n; b++ {
		best := 0
		for i := 1; i < f; i++ {
			if t.F32[b*f+i] > t.F32[b*f+best] {
				best = i
			}
		}
		out[b] = best
	}
	return out
}

// TestQuantEngineParity checks the integer plan against the FP32 engine
// on classifier models: identical top-1 decisions on every probe, and
// raw outputs within quantization tolerance.
func TestQuantEngineParity(t *testing.T) {
	models := map[string]*nn.Graph{
		"lenet":          nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 5}),
		"gesture":        nn.GestureNet(32, 8, nn.BuildOptions{Weights: true, Seed: 9}),
		"mobilenet-edge": nn.MobileNetEdge(32, 10, nn.BuildOptions{Weights: true, Seed: 3}),
	}
	for name, g := range models {
		t.Run(name, func(t *testing.T) {
			optimize.Pipeline(g)
			schema := calibrate(t, g)
			ref, err := inference.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			q, err := inference.CompileQuantized(g, schema)
			if err != nil {
				t.Fatal(err)
			}
			// Ties below 1% probability mass (or two INT8 output steps)
			// do not count as disagreement: the FP32 reference itself
			// cannot meaningfully separate those classes.
			outQ, _ := schema.Params(g.Outputs[0])
			tieTol := 2 * outQ.Scale
			if tieTol < 0.01 {
				tieTol = 0.01
			}
			agree, probes := 0, 0
			var worst float64
			for seed := 10; seed < 14; seed++ {
				in := calibInput(t, g, 4, seed)
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
					if d > worst {
						worst = d
					}
					w := want[out]
					f := w.Shape[1]
					wa, ga := argmaxRows(want[out]), argmaxRows(got[out])
					for i := range wa {
						probes++
						if wa[i] == ga[i] || w.F32[i*f+wa[i]]-w.F32[i*f+ga[i]] <= tieTol {
							agree++
						}
					}
				}
			}
			// Softmax outputs live in [0,1]; INT8 resolution on the final
			// activations bounds the divergence well under 0.1.
			if worst > 0.1 {
				t.Errorf("quantized output diverges: max |diff| = %g", worst)
			}
			if agree != probes {
				t.Errorf("top-1 agreement %d/%d", agree, probes)
			}
		})
	}
}

// TestQuantEngineDeterministic checks that results are bitwise
// identical across repeated runs, pooled run state reused between them.
func TestQuantEngineDeterministic(t *testing.T) {
	g := nn.MobileNetEdge(32, 10, nn.BuildOptions{Weights: true, Seed: 3})
	schema := calibrate(t, g)
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	in := calibInput(t, g, 3, 21)
	a, err := q.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range g.Outputs {
		if d, _ := tensor.MaxAbsDiff(a[out], b[out]); d != 0 {
			t.Errorf("repeated run diverged by %g", d)
		}
	}
}

// TestQuantEngineRunBatch checks fused dispatch: stacked requests split
// back to exactly the per-request Run results.
func TestQuantEngineRunBatch(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 11})
	schema := calibrate(t, g)
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]map[string]*tensor.Tensor, 5)
	for i := range reqs {
		reqs[i] = calibInput(t, g, 1+i%2, 30+i)
	}
	fused, err := q.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		single, err := q.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range g.Outputs {
			if d, _ := tensor.MaxAbsDiff(single[out], fused[i][out]); d != 0 {
				t.Errorf("request %d: fused result differs by %g", i, d)
			}
		}
	}
}

// TestQuantEngineArena checks the ~4x activation-memory reduction: the
// int8 arena holds one byte per element where the FP32 arena holds
// four, over the same liveness plan.
func TestQuantEngineArena(t *testing.T) {
	g := nn.MobileNetEdge(32, 10, nn.BuildOptions{Weights: true, Seed: 3})
	schema := calibrate(t, g)
	ref, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	fp32Bytes := ref.ArenaFloatsPerSample() * 4
	qBytes := q.ArenaBytesPerSample()
	if qBytes == 0 || fp32Bytes == 0 {
		t.Fatalf("empty arena plan: fp32 %d B, quant %d B", fp32Bytes, qBytes)
	}
	if ratio := float64(fp32Bytes) / float64(qBytes); ratio < 3.5 {
		t.Errorf("activation memory ratio %.2f, want ~4x (fp32 %d B, int8 %d B)", ratio, fp32Bytes, qBytes)
	}
}

// TestQuantizedBackendFallback checks the degradation contract: no or
// partial schema compiles to the FP32 engine via QuantizedBackend, and
// CompileQuantized reports ErrNotQuantizable.
func TestQuantizedBackendFallback(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 5})
	if _, err := inference.CompileQuantized(g, nil); err == nil {
		t.Fatal("nil schema: want ErrNotQuantizable")
	}
	partial := nn.NewQuantSchema(g.Name)
	partial.Set(g.Inputs[0], tensor.QuantParams{Scale: 1})
	if _, err := inference.CompileQuantized(g, partial); err == nil {
		t.Fatal("partial schema: want ErrNotQuantizable")
	}
	exe, err := inference.QuantizedBackend{}.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exe.(*inference.Engine); !ok {
		t.Fatalf("want FP32 engine fallback, got %T", exe)
	}
	schema := calibrate(t, g)
	exe, err = inference.QuantizedBackend{Schema: schema}.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exe.(*inference.QuantEngine); !ok {
		t.Fatalf("want quantized engine, got %T", exe)
	}
}

// TestQuantEngineDuplicateOutput checks that a name listed twice in
// g.Outputs dequantizes correctly (it shares one code buffer, like the
// FP32 engine's shared output tensor).
func TestQuantEngineDuplicateOutput(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 11})
	g.Outputs = append(g.Outputs, g.Outputs[0])
	schema := calibrate(t, g)
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	in := calibInput(t, g, 2, 5)
	out, err := q.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	name := g.Outputs[0]
	sum := float32(0)
	for _, v := range out[name].F32 {
		sum += v
	}
	// Softmax rows sum to ~1 per sample; an all-zero tensor would sum 0.
	if sum < 1 {
		t.Fatalf("duplicated output %q looks zeroed: sum %g", name, sum)
	}
}

// TestQuantEngineFallbackSteps checks that only ops without an integer
// lowering (softmax) run through the FP32 island.
func TestQuantEngineFallbackSteps(t *testing.T) {
	g := nn.MobileNetEdge(32, 10, nn.BuildOptions{Weights: true, Seed: 3})
	schema := calibrate(t, g)
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.FallbackSteps(); got != 1 {
		t.Errorf("fallback steps = %d, want 1 (softmax only)", got)
	}
}
