package kenning

import (
	"math"
	"testing"

	"vedliot/internal/accel"
	"vedliot/internal/dataset"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/rvbackend"
	"vedliot/internal/tensor"
	"vedliot/internal/train"
)

func trainedClassifier(t *testing.T) (g *nn.Graph, trainSet, testSet []dataset.Sample) {
	t.Helper()
	samples := dataset.Blobs(400, 12, 3, 0.25, 17)
	trainSet, testSet = dataset.Split(samples, 0.25)
	g = nn.MLP("clf", []int{12, 24, 3}, nn.BuildOptions{Weights: true, Seed: 18})
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: 15, LR: 0.1, BatchSize: 16, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	return g, trainSet, testSet
}

// TestEvaluateOnCPUTarget evaluates the trained classifier on the host
// engine, the FP32 reference the other runtime targets are held to.
func TestEvaluateOnCPUTarget(t *testing.T) {
	g, _, testSet := trainedClassifier(t)
	ev, err := Evaluate(g, inference.CPUBackend{}, testSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Target != (inference.CPUBackend{}).Name() {
		t.Errorf("target %q, want the backend's name", ev.Target)
	}
	if ev.Confusion.Accuracy() < 0.85 {
		t.Errorf("accuracy = %.2f", ev.Confusion.Accuracy())
	}
	if ev.Latency.Count != len(testSet) || ev.Latency.Mean <= 0 {
		t.Errorf("latency stats = %+v", ev.Latency)
	}
	if ev.Latency.P95 < ev.Latency.P50 {
		t.Error("p95 < p50")
	}
}

// TestEvaluateOnSimTarget evaluates the same classifier, unchanged, on a
// simulated accelerator at FP16 and at INT8 and on the RISC-V SoC: FP16
// scores exactly the host engine's accuracy, the INT8 runtimes stay
// close, and a roofline-modeled backend reports one latency for every
// sample. The SoC reports each sample's measured cycles, which move a
// little with the data, so its latency is only checked to be there.
func TestEvaluateOnSimTarget(t *testing.T) {
	g, trainSet, testSet := trainedClassifier(t)
	var calib []map[string]*tensor.Tensor
	for _, s := range trainSet[:64] {
		calib = append(calib, map[string]*tensor.Tensor{g.Inputs[0]: tensor.MustFromSlice(s.X, 1, len(s.X))})
	}
	schema, err := optimize.Calibrate(g, calib)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Evaluate(g, inference.CPUBackend{}, testSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	fp32 := cpu.Confusion.Accuracy()
	cases := []struct {
		backend       inference.Backend
		int8, modeled bool
	}{
		{&accel.Backend{Device: dev, Precision: tensor.FP16}, false, true},
		{accel.NewQuantizedBackend(dev, schema), true, true},
		{rvbackend.Backend{Schema: schema}, true, false},
	}
	for _, c := range cases {
		ev, err := Evaluate(g, c.backend, testSet, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.backend.Name(), err)
		}
		acc := ev.Confusion.Accuracy()
		t.Logf("%-20s accuracy %.3f  latency p50 %v max %v", ev.Target, acc, ev.Latency.P50, ev.Latency.Max)
		if ev.Target != c.backend.Name() {
			t.Errorf("target %q, want the backend's name %q", ev.Target, c.backend.Name())
		}
		if ev.Latency.Count != len(testSet) || ev.Latency.Mean <= 0 {
			t.Errorf("%s: latency stats = %+v", ev.Target, ev.Latency)
		}
		if c.int8 {
			if math.Abs(acc-fp32) > 0.05 {
				t.Errorf("%s: INT8 accuracy %.3f, FP32 %.3f", ev.Target, acc, fp32)
			}
		} else if acc != fp32 {
			t.Errorf("%s: accuracy %.3f, host engine %.3f", ev.Target, acc, fp32)
		}
		if c.modeled && ev.Latency.P50 != ev.Latency.Max {
			t.Errorf("%s: modeled latency varies: p50 %v, max %v", ev.Target, ev.Latency.P50, ev.Latency.Max)
		}
	}
}

func TestRunPipelineQuantizeAndPrune(t *testing.T) {
	g, _, testSet := trainedClassifier(t)
	before, err := Evaluate(g.Clone(), inference.CPUBackend{}, testSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunPipeline(g, PipelineConfig{Quantize: true, Prune: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PruneReport == nil || rep.QuantReport == nil {
		t.Fatal("missing stage reports")
	}
	if math.Abs(rep.PruneReport.Sparsity()-0.5) > 0.05 {
		t.Errorf("sparsity = %.2f", rep.PruneReport.Sparsity())
	}
	after, err := Evaluate(g, inference.CPUBackend{}, testSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The compressed model keeps most of its accuracy.
	if after.Confusion.Accuracy() < before.Confusion.Accuracy()-0.15 {
		t.Errorf("compression destroyed accuracy: %.2f -> %.2f",
			before.Confusion.Accuracy(), after.Confusion.Accuracy())
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := NewConfusionMatrix(2)
	// 3 TP(1), 1 FN(1->0), 1 FP(0->1), 5 TN.
	for i := 0; i < 3; i++ {
		_ = cm.Add(1, 1)
	}
	_ = cm.Add(1, 0)
	_ = cm.Add(0, 1)
	for i := 0; i < 5; i++ {
		_ = cm.Add(0, 0)
	}
	if cm.Total() != 10 {
		t.Errorf("total = %d", cm.Total())
	}
	if acc := cm.Accuracy(); math.Abs(acc-0.8) > 1e-9 {
		t.Errorf("accuracy = %v", acc)
	}
	if p := cm.Precision(1); math.Abs(p-0.75) > 1e-9 {
		t.Errorf("precision(1) = %v", p)
	}
	if r := cm.Recall(1); math.Abs(r-0.75) > 1e-9 {
		t.Errorf("recall(1) = %v", r)
	}
	if err := cm.Add(5, 0); err == nil {
		t.Error("out-of-range label accepted")
	}
	if s := cm.String(); len(s) == 0 {
		t.Error("empty render")
	}
	// Degenerate classes.
	empty := NewConfusionMatrix(2)
	if empty.Precision(0) != 1 || empty.Recall(0) != 1 {
		t.Error("degenerate precision/recall should be 1")
	}
}

func TestPRCurve(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	truth := []bool{true, true, false, true, false}
	curve, err := PRCurve(scores, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 5 {
		t.Fatalf("curve has %d points", len(curve))
	}
	// First point: highest threshold, one TP.
	if curve[0].Precision != 1 || math.Abs(curve[0].Recall-1.0/3) > 1e-9 {
		t.Errorf("point0 = %+v", curve[0])
	}
	// Recall is non-decreasing.
	for i := 1; i < len(curve); i++ {
		if curve[i].Recall < curve[i-1].Recall {
			t.Error("recall decreased")
		}
	}
	// Last point recalls everything.
	if curve[len(curve)-1].Recall != 1 {
		t.Error("final recall != 1")
	}
	ap := AveragePrecision(curve)
	if ap <= 0.5 || ap > 1 {
		t.Errorf("AP = %v", ap)
	}
	if _, err := PRCurve([]float64{1}, []bool{true, false}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PRCurve(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}
