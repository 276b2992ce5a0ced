package optimize

import (
	"bytes"
	"math"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// zeroChannelNet builds a conv net whose first output channel's filter
// is identically zero — the degenerate per-channel range.
func zeroChannelNet(t *testing.T) *nn.Graph {
	t.Helper()
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 31})
	conv := findOp(g, nn.OpConv)
	if conv == nil {
		t.Fatal("no conv node")
	}
	w := conv.Weight(nn.WeightKey)
	perOut := w.NumElements() / w.Shape[0]
	for i := 0; i < perOut; i++ {
		w.F32[i] = 0
	}
	return g
}

func findOp(g *nn.Graph, op nn.OpType) *nn.Node {
	for _, n := range g.Nodes {
		if n.Op == op {
			return n
		}
	}
	return nil
}

// TestQuantizeZeroRangeChannel checks that an all-zero output channel
// quantizes without degenerate scales in both granularities: the codes
// stay zero, dequantize back to exactly zero, and the reported MSE is
// finite.
func TestQuantizeZeroRangeChannel(t *testing.T) {
	for _, gran := range []QuantGranularity{PerTensor, PerChannel} {
		g := zeroChannelNet(t)
		rep, err := QuantizeWeights(g, QuantConfig{Granularity: gran})
		if err != nil {
			t.Fatalf("%s: %v", gran, err)
		}
		if math.IsNaN(rep.WeightMSE) || math.IsInf(rep.WeightMSE, 0) {
			t.Fatalf("%s: degenerate weight MSE %v", gran, rep.WeightMSE)
		}
		conv := findOp(g, nn.OpConv)
		w := conv.Weight(nn.WeightKey)
		perOut := w.NumElements() / w.Shape[0]
		for i := 0; i < perOut; i++ {
			if got := w.At(0, i/(w.Shape[2]*w.Shape[3]), (i/w.Shape[3])%w.Shape[2], i%w.Shape[3]); got != 0 {
				t.Fatalf("%s: zero channel element %d dequantizes to %g", gran, i, got)
			}
		}
		// The quantized graph must still execute (scale must not be 0).
		if w.DType == tensor.INT8 && !(w.Quant.Scale > 0) {
			t.Fatalf("%s: non-positive stored scale %g", gran, w.Quant.Scale)
		}
	}
}

// TestSNRGranularityOrdering checks the granularity ablation's premise:
// per-channel quantization never has lower SNR than per-tensor on
// weights with heterogeneous channel ranges.
func TestSNRGranularityOrdering(t *testing.T) {
	// Channels with a 10x range mismatch: per-tensor spends its codes on
	// the large channel and quantizes the small one coarsely, so
	// per-channel scales recover several dB of aggregate SNR.
	w := tensor.New(tensor.FP32, 2, 1, 2, 2)
	big := []float32{10, -8, 6, -10}
	small := []float32{1, -0.8, 0.6, -1}
	copy(w.F32[:4], big)
	copy(w.F32[4:], small)

	perTensor := QuantizationSNR(w, PerTensor)
	perChannel := QuantizationSNR(w, PerChannel)
	if perChannel < perTensor {
		t.Fatalf("per-channel SNR %.2f dB < per-tensor %.2f dB", perChannel, perTensor)
	}
	if perChannel-perTensor < 2 {
		t.Errorf("heterogeneous channels should gain >=2 dB, got %.2f dB", perChannel-perTensor)
	}

	// On a homogeneous tensor the two must essentially coincide.
	h := tensor.New(tensor.FP32, 2, 1, 2, 2)
	for i := range h.F32 {
		h.F32[i] = float32(i%5) - 2
	}
	dPT, dPC := QuantizationSNR(h, PerTensor), QuantizationSNR(h, PerChannel)
	if dPC < dPT-1e-9 {
		t.Errorf("homogeneous: per-channel %.2f dB below per-tensor %.2f dB", dPC, dPT)
	}
}

// TestQuantSchemaRoundTrip checks the schema artifact's determinism:
// calibration is reproducible, the JSON encoding is byte-stable, and
// decode(encode(s)) reproduces the schema exactly.
func TestQuantSchemaRoundTrip(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 17})
	sample := func(seed int) map[string]*tensor.Tensor {
		in := tensor.New(tensor.FP32, append(tensor.Shape{2}, g.Node(g.Inputs[0]).Attrs.Shape...)...)
		for i := range in.F32 {
			in.F32[i] = float32((i*5+seed*11)%19)/19 - 0.5
		}
		return map[string]*tensor.Tensor{g.Inputs[0]: in}
	}
	samples := []map[string]*tensor.Tensor{sample(1), sample(2)}

	s1, err := Calibrate(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Calibrate(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated calibration produced different schema bytes")
	}

	// Every graph value must be covered, with usable scales.
	if err := s1.Covers(g); err != nil {
		t.Fatalf("calibrated schema does not cover the graph: %v", err)
	}

	decoded, err := nn.DecodeQuantSchema(b1)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Model != s1.Model || len(decoded.Activations) != len(s1.Activations) {
		t.Fatalf("round trip lost structure: %q/%d vs %q/%d",
			decoded.Model, len(decoded.Activations), s1.Model, len(s1.Activations))
	}
	for name, q := range s1.Activations {
		if dq, ok := decoded.Params(name); !ok || dq != q {
			t.Fatalf("round trip changed %q: %+v vs %+v", name, dq, q)
		}
	}
	b3, err := decoded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("re-encoding the decoded schema changed bytes")
	}
}

// TestQuantizeWeightsEmitsSchema checks that a graph the PTQ pass
// quantized calibrates to a schema covering every value — the order
// kenning.RunPipeline runs them in.
func TestQuantizeWeightsEmitsSchema(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 31})
	if _, err := QuantizeWeights(g, QuantConfig{Granularity: PerTensor}); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, append(tensor.Shape{1}, g.Node(g.Inputs[0]).Attrs.Shape...)...)
	for i := range in.F32 {
		in.F32[i] = float32(i%17)/17 - 0.5
	}
	schema, err := Calibrate(g, []map[string]*tensor.Tensor{{g.Inputs[0]: in}})
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Covers(g); err != nil {
		t.Fatalf("PTQ schema does not cover the graph: %v", err)
	}
}
