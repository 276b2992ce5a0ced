package kenning

import (
	"math"
	"testing"

	"vedliot/internal/accel"
	"vedliot/internal/dataset"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	"vedliot/internal/train"
)

func trainedClassifier(t *testing.T) (*nn.Graph, []dataset.Sample) {
	t.Helper()
	samples := dataset.Blobs(400, 12, 3, 0.25, 17)
	trainSet, testSet := dataset.Split(samples, 0.25)
	g := nn.MLP("clf", []int{12, 24, 3}, nn.BuildOptions{Weights: true, Seed: 18})
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: 15, LR: 0.1, BatchSize: 16, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	return g, testSet
}

func TestEvaluateOnCPUTarget(t *testing.T) {
	g, testSet := trainedClassifier(t)
	ev, err := Evaluate(g, &CPUTarget{}, testSet, 3)
	if err != nil {
		t.Fatal(err)
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

func TestEvaluateOnSimTarget(t *testing.T) {
	g, testSet := trainedClassifier(t)
	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(g, &SimTarget{Device: dev, Precision: tensor.FP16}, testSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Quality identical to CPU (same arithmetic), latency from model.
	cpu, err := Evaluate(g, &CPUTarget{}, testSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Confusion.Accuracy() != cpu.Confusion.Accuracy() {
		t.Error("sim target changed accuracy")
	}
	if ev.Latency.P50 != ev.Latency.Max {
		t.Error("modeled latency should be constant per model")
	}
}

func TestRunPipelineQuantizeAndPrune(t *testing.T) {
	g, testSet := trainedClassifier(t)
	before, err := Evaluate(g.Clone(), &CPUTarget{}, testSet, 3)
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
	after, err := Evaluate(g, &CPUTarget{}, testSet, 3)
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

func TestTargetsRequireDeploy(t *testing.T) {
	in := tensor.New(tensor.FP32, 1, 4)
	if _, _, err := (&CPUTarget{}).Infer(in); err == nil {
		t.Error("undeployed CPU target ran")
	}
	dev, _ := accel.FindDevice("Xavier NX")
	if _, _, err := (&SimTarget{Device: dev, Precision: tensor.FP16}).Infer(in); err == nil {
		t.Error("undeployed sim target ran")
	}
}
