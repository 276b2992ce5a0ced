package accel

import (
	"math"
	"testing"
	"testing/quick"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

func yoloWorkload(t *testing.T) Workload {
	t.Helper()
	g := nn.YoloV4(608, 80, nn.BuildOptions{})
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSurveyClusterAroundOneTOPSW(t *testing.T) {
	// Fig. 3's headline observation: most architectures cluster around
	// ~1 TOPS/W regardless of absolute performance. Verify the geometric
	// mean lies within a factor of ~3 of 1 TOPS/W and that the spread of
	// absolute power spans at least five decades.
	entries := Survey()
	if len(entries) < 30 {
		t.Fatalf("survey has only %d entries", len(entries))
	}
	var logSum float64
	minW, maxW := math.Inf(1), 0.0
	for _, e := range entries {
		eff := e.TOPSW()
		if eff <= 0 {
			t.Fatalf("%s has nonpositive efficiency", e.Name)
		}
		logSum += math.Log10(eff)
		if e.PowerW < minW {
			minW = e.PowerW
		}
		if e.PowerW > maxW {
			maxW = e.PowerW
		}
	}
	geoMean := math.Pow(10, logSum/float64(len(entries)))
	if geoMean < 1.0/3 || geoMean > 3 {
		t.Errorf("geometric-mean efficiency %.2f TOPS/W not within 3x of 1", geoMean)
	}
	if maxW/minW < 1e5 {
		t.Errorf("power range %g-%g W spans < 5 decades", minW, maxW)
	}
}

func TestSurveyHasIPCores(t *testing.T) {
	n := 0
	for _, e := range Survey() {
		if e.IPCore {
			n++
		}
	}
	if n < 5 {
		t.Errorf("only %d IP cores in survey", n)
	}
}

func TestEvaluationPlatformsCoverPaperSet(t *testing.T) {
	want := []string{
		"Xavier AGX (HP)", "Xavier AGX (LP)", "Xavier NX", "Jetson TX2",
		"GTX1660", "D1577", "Epic3451", "Myriad", "ZU15 2xB4096", "ZU3 B2304",
	}
	have := map[string]bool{}
	for _, d := range EvaluationPlatforms() {
		have[d.Name] = true
		if d.MaxW <= d.IdleW {
			t.Errorf("%s: MaxW %v <= IdleW %v", d.Name, d.MaxW, d.IdleW)
		}
		if d.MemBWGBs <= 0 || d.MaxUtil <= 0 || d.MaxUtil > 1 {
			t.Errorf("%s: implausible parameters", d.Name)
		}
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("missing platform %s", n)
		}
	}
}

func TestEvaluateBasicProperties(t *testing.T) {
	w := yoloWorkload(t)
	dev, err := FindDevice("Xavier AGX (HP)")
	if err != nil {
		t.Fatal(err)
	}
	m, err := dev.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.LatencyMS <= 0 || m.GOPS <= 0 {
		t.Fatalf("degenerate measurement %+v", m)
	}
	if m.GOPS >= dev.PeakGOPS[tensor.INT8] {
		t.Errorf("achieved %v GOPS >= peak %v: roofline not applied", m.GOPS, dev.PeakGOPS[tensor.INT8])
	}
	if m.PowerW < dev.IdleW || m.PowerW > dev.MaxW {
		t.Errorf("power %v outside [%v, %v]", m.PowerW, dev.IdleW, dev.MaxW)
	}
}

func TestBatchingImprovesThroughput(t *testing.T) {
	// Fig. 4: B8 points sit above B1 points for GPUs.
	w := yoloWorkload(t)
	dev, _ := FindDevice("GTX1660")
	m1, err := dev.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := dev.Evaluate(w, tensor.INT8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m8.GOPS <= m1.GOPS {
		t.Errorf("batch 8 (%.0f GOPS) not faster than batch 1 (%.0f GOPS)", m8.GOPS, m1.GOPS)
	}
}

func TestPrecisionOrdering(t *testing.T) {
	// INT8 > FP16 > FP32 throughput on devices supporting all three.
	w := yoloWorkload(t)
	for _, name := range []string{"Xavier AGX (HP)", "GTX1660"} {
		dev, _ := FindDevice(name)
		var prev float64 = math.Inf(1)
		for _, p := range []tensor.DType{tensor.INT8, tensor.FP16, tensor.FP32} {
			m, err := dev.Evaluate(w, p, 8)
			if err != nil {
				t.Fatal(err)
			}
			if m.GOPS >= prev {
				t.Errorf("%s: %s GOPS %.0f >= faster precision %.0f", name, p, m.GOPS, prev)
			}
			prev = m.GOPS
		}
	}
}

func TestUnsupportedPrecisionRejected(t *testing.T) {
	dev, _ := FindDevice("ZU15 2xB4096") // INT8 only
	w := yoloWorkload(t)
	if _, err := dev.Evaluate(w, tensor.FP32, 1); err == nil {
		t.Error("FPGA DPU accepted FP32")
	}
	if _, err := dev.Evaluate(w, tensor.INT8, 0); err == nil {
		t.Error("accepted batch 0")
	}
}

func TestPeakOnlyOverestimates(t *testing.T) {
	// The ablation claim: a peak-only model predicts higher throughput
	// than the roofline for every platform.
	w := yoloWorkload(t)
	for _, dev := range EvaluationPlatforms() {
		p := dev.BestPrecision()
		roof, err := dev.Evaluate(w, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		peak, err := dev.PeakOnly(w, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if peak.GOPS < roof.GOPS {
			t.Errorf("%s: peak-only %.0f < roofline %.0f GOPS", dev.Name, peak.GOPS, roof.GOPS)
		}
	}
}

func TestSparsityAwareEvaluate(t *testing.T) {
	w := yoloWorkload(t)
	dev, _ := FindDevice("Xavier NX")
	dense, err := dev.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unstructured sparsity without zero-skipping hardware: no gain.
	unstr, err := dev.SparsityAwareEvaluate(w, tensor.INT8, 1, 0, 0.9, false)
	if err != nil {
		t.Fatal(err)
	}
	if unstr.LatencyMS < dense.LatencyMS*0.99 {
		t.Errorf("unstructured sparsity sped up non-skipping hardware: %v -> %v ms",
			dense.LatencyMS, unstr.LatencyMS)
	}
	// Structured sparsity: real gain.
	str, err := dev.SparsityAwareEvaluate(w, tensor.INT8, 1, 0.5, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if str.LatencyMS >= dense.LatencyMS {
		t.Errorf("structured sparsity gave no speedup: %v -> %v ms", dense.LatencyMS, str.LatencyMS)
	}
}

func TestWorkloadFromGraphScalesWithPrecision(t *testing.T) {
	g := nn.ResNet50(224, nn.BuildOptions{})
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	w32, err := WorkloadFromGraph(g, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	w8, err := WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		t.Fatal(err)
	}
	if w8.WeightBytes*4 != w32.WeightBytes {
		t.Errorf("INT8 weights %d, FP32 %d: not 4x", w8.WeightBytes, w32.WeightBytes)
	}
	if w8.OpsPerInference != w32.OpsPerInference {
		t.Error("ops changed with precision")
	}
}

func TestUtilizationMonotoneProperty(t *testing.T) {
	dev, _ := FindDevice("Xavier AGX (HP)")
	f := func(a, b uint8) bool {
		ba, bb := int(a)%64+1, int(b)%64+1
		if ba > bb {
			ba, bb = bb, ba
		}
		return dev.utilization(ba) <= dev.utilization(bb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestArrayConfigSynthesize(t *testing.T) {
	cfg := ArrayConfig{Rows: 32, Cols: 32, ClockGHz: 0.3, OnChipKiB: 512}
	dev, err := cfg.Synthesize("test")
	if err != nil {
		t.Fatal(err)
	}
	// 1024 PEs * 2 ops * 0.3 GHz = 614.4 GOPS INT8.
	if math.Abs(dev.PeakGOPS[tensor.INT8]-614.4) > 1 {
		t.Errorf("peak = %v, want ~614", dev.PeakGOPS[tensor.INT8])
	}
	if dev.MaxW <= dev.IdleW || dev.MaxW > 15 {
		t.Errorf("implausible power %v/%v", dev.IdleW, dev.MaxW)
	}
	if _, err := (ArrayConfig{Rows: 0, Cols: 8, ClockGHz: 0.3, OnChipKiB: 64}).Synthesize("bad"); err == nil {
		t.Error("accepted 0 rows")
	}
	if _, err := (ArrayConfig{Rows: 8, Cols: 8, ClockGHz: 3, OnChipKiB: 64}).Synthesize("bad"); err == nil {
		t.Error("accepted 3 GHz FPGA clock")
	}
}

func TestReconfigurableSwitching(t *testing.T) {
	profiles := []ArrayConfig{
		{Rows: 16, Cols: 16, ClockGHz: 0.2, OnChipKiB: 256},  // low power
		{Rows: 64, Cols: 64, ClockGHz: 0.5, OnChipKiB: 1024}, // high perf
	}
	r, err := NewReconfigurable(profiles, 80)
	if err != nil {
		t.Fatal(err)
	}
	if r.active != 0 {
		t.Fatal("profile 0 should start active")
	}
	d, err := r.Switch(1)
	if err != nil || d != 80 {
		t.Errorf("switch delay = %v, %v", d, err)
	}
	if d2, _ := r.Switch(1); d2 != 0 {
		t.Errorf("re-switch to active profile cost %v ms", d2)
	}
	if _, err := r.Switch(5); err == nil {
		t.Error("accepted invalid profile")
	}

	// Deadline-driven selection: tight deadline picks the big profile,
	// loose deadline the low-power one.
	w := Workload{Name: "w", OpsPerInference: 2e9, WeightBytes: 5e6, ActivationBytes: 5e6}
	tight := r.BestProfileFor(w, tensor.INT8, 3)
	loose := r.BestProfileFor(w, tensor.INT8, 1000)
	if tight != 1 {
		t.Errorf("tight deadline chose profile %d", tight)
	}
	if loose != 0 {
		t.Errorf("loose deadline chose profile %d", loose)
	}
}

func TestCoDesignMeetsConstraints(t *testing.T) {
	g := nn.MobileNetV3(224, nn.BuildOptions{})
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CoDesign(w, CoDesignConstraints{LatencyMS: 30, PowerW: 5, Precision: tensor.INT8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("no feasible design for MobileNetV3 @30ms/5W")
	}
	if res.M.LatencyMS > 30 || res.M.PowerW > 5 {
		t.Errorf("constraints violated: %.1f ms, %.1f W", res.M.LatencyMS, res.M.PowerW)
	}
	if res.SuggestedChannelMultiple != res.Config.Cols {
		t.Error("feedback multiple should match array columns")
	}
	if _, err := CoDesign(w, CoDesignConstraints{LatencyMS: -1, PowerW: 5}); err == nil {
		t.Error("accepted negative deadline")
	}
}

func TestCoDesignInfeasibleFallsBack(t *testing.T) {
	w := yoloWorkload(t)
	// YoloV4 in 1 ms under 1 W is impossible; expect the fastest
	// fallback, marked infeasible.
	res, err := CoDesign(w, CoDesignConstraints{LatencyMS: 1, PowerW: 1, Precision: tensor.INT8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("claimed feasibility for impossible constraints")
	}
	if res.Dev == nil || res.M.LatencyMS <= 0 {
		t.Error("fallback design missing")
	}
}

func TestEnergyPerInference(t *testing.T) {
	m := Measurement{PowerW: 10, LatencyMS: 20, Batch: 4}
	if e := m.EnergyPerInferenceMJ(); math.Abs(e-50) > 1e-9 {
		t.Errorf("energy = %v mJ, want 50", e)
	}
}

func TestFindDevice(t *testing.T) {
	if _, err := FindDevice("GTX1660"); err != nil {
		t.Error(err)
	}
	if _, err := FindDevice("EdgeTPU SoM"); err != nil {
		t.Error(err)
	}
	if _, err := FindDevice("nope"); err == nil {
		t.Error("found nonexistent device")
	}
}
