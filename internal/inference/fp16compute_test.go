package inference

import (
	"math"
	"testing"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// fp16Graph is the FP16-compute reference model: FaceDetectNet with
// its conv filters stored as binary16 (biases and folded batch-norm
// affines stay FP32, the standard mixed-precision split).
func fp16Graph() *nn.Graph {
	g := nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 91})
	for _, n := range g.Nodes {
		if w := n.Weight(nn.WeightKey); w != nil && w.DType == tensor.FP32 {
			n.SetWeight(nn.WeightKey, w.Convert(tensor.FP16))
		}
	}
	return g
}

// TestFP16ComputePrecisionAssignment checks the lowering side of the
// FP16-compute plan: intermediate values are stamped FP16 while the
// caller-facing boundary (module inputs, declared outputs) stays FP32.
func TestFP16ComputePrecisionAssignment(t *testing.T) {
	g := fp16Graph()
	m, _, err := ir.Lower(g, ir.Config{FP16Compute: true}, false)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	boundary := make(map[int]bool)
	for _, id := range m.Inputs {
		boundary[id] = true
	}
	for _, o := range m.Outputs {
		boundary[o.Value] = true
	}
	live := m.Live()
	interior := 0
	for id := range live {
		v := m.Values[id]
		if boundary[id] {
			if v.Prec != ir.FP32 {
				t.Fatalf("boundary value %q assigned %v, want f32", v.Name, v.Prec)
			}
			continue
		}
		if v.Prec != ir.FP16 {
			t.Fatalf("interior value %q assigned %v, want f16", v.Name, v.Prec)
		}
		interior++
	}
	if interior == 0 {
		t.Fatal("no interior values were assigned FP16")
	}
}

// TestFP16ComputeSingleLayerBitwise pins the weight-residency contract:
// a single-layer graph has no FP16-stored intermediate (its output is a
// declared FP32 output), so an FP16-compute engine differs from the
// plain FP32 engine only in keeping the binary16 weights packed
// half-width and widening them on load — which must be bitwise
// invisible, for both the conv GEMM path and the dense GEMM path.
func TestFP16ComputeSingleLayerBitwise(t *testing.T) {
	build := map[string]func() *nn.Graph{
		"conv": func() *nn.Graph {
			b := nn.NewBuilder("conv-only", nn.BuildOptions{Weights: true, Seed: 5})
			x := b.Input("input", 8, 16, 16)
			x = b.Conv(x, 8, 12, 3, 1, 1)
			return b.Graph(x)
		},
		"dense": func() *nn.Graph {
			b := nn.NewBuilder("dense-only", nn.BuildOptions{Weights: true, Seed: 6})
			x := b.Input("input", 40)
			x = b.Dense(x, 40, 24)
			return b.Graph(x)
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			g := mk()
			for _, n := range g.Nodes {
				if w := n.Weight(nn.WeightKey); w != nil && w.DType == tensor.FP32 {
					n.SetWeight(nn.WeightKey, w.Convert(tensor.FP16))
				}
			}
			ref := mustCompile(t, g)
			f16 := mustCompile(t, g, PrecisionFP16Compute())
			// A ragged panel and a full one; both must match the
			// dequantize-at-bind plan exactly.
			for _, batch := range []int{1, 8} {
				in := tensor.New(tensor.FP32, append(tensor.Shape{batch}, g.Node(g.Inputs[0]).Attrs.Shape...)...)
				fillInput(in, batch)
				inputs := map[string]*tensor.Tensor{g.Inputs[0]: in}
				want, err := ref.Run(inputs)
				if err != nil {
					t.Fatalf("fp32 run: %v", err)
				}
				got, err := f16.Run(inputs)
				if err != nil {
					t.Fatalf("fp16 run: %v", err)
				}
				for oname, w := range want {
					gv := got[oname]
					for i := range w.F32 {
						if math.Float32bits(w.F32[i]) != math.Float32bits(gv.F32[i]) {
							t.Fatalf("batch %d output %s[%d]: fp16-compute %g, fp32 %g",
								batch, oname, i, gv.F32[i], w.F32[i])
						}
					}
				}
			}
		})
	}
}

// TestFP16ComputeCloseToFP32 runs the full FP16-compute plan — FP16
// arena for intermediates, half-width weight panels — against the
// plain FP32 engine on the same FP16-weight model. Outputs differ only
// by the round-to-nearest-even narrowing of each intermediate
// activation, so they must agree to FP16-grade relative accuracy.
func TestFP16ComputeCloseToFP32(t *testing.T) {
	g := fp16Graph()
	ref := mustCompile(t, g)
	f16 := mustCompile(t, g, PrecisionFP16Compute())
	if f16.arenaHPerSample == 0 {
		t.Fatal("FP16-compute plan allocated no halfword arena")
	}
	if f16.stagePerSample == 0 {
		t.Fatal("FP16-compute plan sized no staging region")
	}
	in := tensor.New(tensor.FP32, append(tensor.Shape{3}, g.Node(g.Inputs[0]).Attrs.Shape...)...)
	fillInput(in, 9)
	inputs := map[string]*tensor.Tensor{g.Inputs[0]: in}
	want, err := ref.Run(inputs)
	if err != nil {
		t.Fatalf("fp32 run: %v", err)
	}
	got, err := f16.Run(inputs)
	if err != nil {
		t.Fatalf("fp16 run: %v", err)
	}
	for name, w := range want {
		gv := got[name]
		for i := range w.F32 {
			diff := math.Abs(float64(w.F32[i] - gv.F32[i]))
			scale := math.Max(math.Abs(float64(w.F32[i])), 1)
			if diff/scale > 2e-2 {
				t.Fatalf("output %s[%d]: fp16-compute %g vs fp32 %g (rel %g)",
					name, i, gv.F32[i], w.F32[i], diff/scale)
			}
		}
	}
	// Determinism: a second run reproduces the first bit for bit.
	again, err := f16.Run(inputs)
	if err != nil {
		t.Fatalf("fp16 rerun: %v", err)
	}
	for name, w := range got {
		for i := range w.F32 {
			if math.Float32bits(w.F32[i]) != math.Float32bits(again[name].F32[i]) {
				t.Fatalf("output %s[%d] not deterministic", name, i)
			}
		}
	}
}

// TestFP16ComputeBatchInvariance replicates one sample across a batch:
// every per-sample kernel and the elementwise FP16 narrowing are batch
// invariant, so each replica's rows must equal the batch-1 result bit
// for bit.
func TestFP16ComputeBatchInvariance(t *testing.T) {
	g := fp16Graph()
	f16 := mustCompile(t, g, PrecisionFP16Compute())
	per := g.Node(g.Inputs[0]).Attrs.Shape
	one := tensor.New(tensor.FP32, append(tensor.Shape{1}, per...)...)
	fillInput(one, 4)
	rep := tensor.New(tensor.FP32, append(tensor.Shape{6}, per...)...)
	for b := 0; b < 6; b++ {
		copy(rep.F32[b*len(one.F32):], one.F32)
	}
	single, err := f16.Run(map[string]*tensor.Tensor{g.Inputs[0]: one})
	if err != nil {
		t.Fatalf("batch-1 run: %v", err)
	}
	batched, err := f16.Run(map[string]*tensor.Tensor{g.Inputs[0]: rep})
	if err != nil {
		t.Fatalf("batch-6 run: %v", err)
	}
	for name, s := range single {
		rows := batched[name]
		n := len(s.F32)
		for b := 0; b < 6; b++ {
			for i := 0; i < n; i++ {
				if math.Float32bits(s.F32[i]) != math.Float32bits(rows.F32[b*n+i]) {
					t.Fatalf("output %s sample %d[%d] differs from batch-1 result", name, b, i)
				}
			}
		}
	}
}

// TestFP16ComputeTrafficModel checks the modeled-traffic accounting the
// bench harness gates on: the FP16-compute plan of an FP16-weight model
// must move at least 1.5x fewer modeled bytes per sample than the plain
// FP32 plan of the same graph (weights and intermediates both halve;
// the FP32 boundary keeps the ratio under 2).
func TestFP16ComputeTrafficModel(t *testing.T) {
	g := fp16Graph()
	ref := mustCompile(t, g)
	f16 := mustCompile(t, g, PrecisionFP16Compute())
	fw, hw := ref.ModeledTrafficBytesPerSample(), f16.ModeledTrafficBytesPerSample()
	if fw <= 0 || hw <= 0 {
		t.Fatalf("traffic model returned %d / %d bytes", fw, hw)
	}
	ratio := float64(fw) / float64(hw)
	if ratio < 1.5 {
		t.Fatalf("modeled traffic ratio %.3f (fp32 %d B, fp16 %d B), want >= 1.5", ratio, fw, hw)
	}
	if ratio > 2.0 {
		t.Fatalf("modeled traffic ratio %.3f exceeds the 2x physical bound", ratio)
	}
}
