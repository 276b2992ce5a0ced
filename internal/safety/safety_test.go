package safety

import (
	"sync"
	"testing"

	"vedliot/internal/dataset"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

func TestMonitorDetectsInjectedErrors(t *testing.T) {
	clean := dataset.CleanSeries(dataset.SeriesConfig{N: 4000, Period: 50, Noise: 0.05, Seed: 1})
	bad := dataset.InjectErrors(clean, dataset.InjectConfig{Rate: 0.01, Seed: 2})
	// Windowed detectors localize faults to half-window granularity.
	tolerance := DefaultSeriesMonitorConfig().Window / 2
	rep := EvaluateSeriesMonitor(bad, DefaultSeriesMonitorConfig(), tolerance)

	for _, kind := range []dataset.ErrorKind{dataset.ErrOutlier, dataset.ErrStuckAt, dataset.ErrNoiseBurst} {
		if rep.Recall[kind] < 0.6 {
			t.Errorf("%s recall = %.2f, want >= 0.6", kind, rep.Recall[kind])
		}
	}
	if rep.Recall[dataset.ErrDrift] < 0.2 {
		t.Errorf("drift recall = %.2f, want >= 0.2", rep.Recall[dataset.ErrDrift])
	}
	if rep.FalseAlarmRate > 0.05 {
		t.Errorf("false alarm rate = %.3f, want <= 0.05", rep.FalseAlarmRate)
	}
}

func TestMonitorQuietOnCleanData(t *testing.T) {
	clean := dataset.CleanSeries(dataset.SeriesConfig{N: 4000, Period: 50, Noise: 0.05, Seed: 3})
	alarms := MonitorSeries(clean.Values, DefaultSeriesMonitorConfig())
	if rate := float64(len(alarms)) / 4000; rate > 0.02 {
		t.Errorf("alarm rate on clean data = %.3f", rate)
	}
}

func TestMonitorEmptyAndShortInputs(t *testing.T) {
	if MonitorSeries(nil, DefaultSeriesMonitorConfig()) != nil {
		t.Error("alarms on empty input")
	}
	// Short inputs must not panic.
	_ = MonitorSeries([]float32{1, 2, 3}, DefaultSeriesMonitorConfig())
}

func TestImageNoiseScoreOrdersByNoise(t *testing.T) {
	clean := dataset.SceneImage(64, 64, 0, 7)
	mild := dataset.SceneImage(64, 64, 0.05, 7)
	heavy := dataset.SceneImage(64, 64, 0.3, 7)
	a, b, c := ImageNoiseScore(clean), ImageNoiseScore(mild), ImageNoiseScore(heavy)
	if !(a < b && b < c) {
		t.Errorf("noise scores not ordered: %.4f, %.4f, %.4f", a, b, c)
	}
	if ImageNoiseScore(dataset.Image{W: 2, H: 2, Pix: make([]float32, 4)}) != 0 {
		t.Error("tiny image should score 0")
	}
}

func TestRobustnessServiceDetectsFaults(t *testing.T) {
	reference := nn.LeNet(16, 4, nn.BuildOptions{Weights: true, Seed: 10})
	deployed := reference.Clone()
	svc, err := NewRobustnessService(reference, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *nn.Graph, in *tensor.Tensor) *tensor.Tensor {
		t.Helper()
		s, err := NewRobustnessService(g, 0) // reuse runner creation
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.reference.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range in.F32 {
		in.F32[i] = float32(i%9)/9 - 0.5
	}

	// Healthy device: output matches.
	healthy := run(deployed, in)
	v, err := svc.Check(in, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Errorf("healthy output flagged (divergence %g)", v.Divergence)
	}

	// Fault-injected device: output diverges.
	if n := InjectWeightFaults(deployed, 200, 42); n != 200 {
		t.Fatalf("injected %d faults", n)
	}
	faulty := run(deployed, in)
	v2, err := svc.Check(in, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if v2.OK {
		t.Error("200 weight bit flips went undetected")
	}
	checks, anomalies := svc.Stats()
	if checks != 2 || anomalies != 1 {
		t.Errorf("stats = %d/%d", checks, anomalies)
	}
}

func TestInjectWeightFaultsKeepsFinite(t *testing.T) {
	g := nn.LeNet(16, 4, nn.BuildOptions{Weights: true, Seed: 4})
	InjectWeightFaults(g, 1000, 5)
	for _, n := range g.Nodes {
		for _, w := range n.Weights {
			for _, v := range w.F32 {
				if v != v { // NaN
					t.Fatal("fault injection produced NaN")
				}
			}
		}
	}
	if InjectWeightFaults(nn.NewGraph("empty"), 5, 1) != 0 {
		t.Error("flips applied to weightless graph")
	}
}

func TestHybridFallsBack(t *testing.T) {
	h := &Hybrid[int, int]{
		Payload: func(in int) (int, error) {
			if in%2 == 0 {
				return -1, nil // bad result
			}
			return 42, nil
		},
		Check:      func(v int) bool { return v >= 0 },
		SafeAction: func() int { return 0 },
	}
	a := h.Invoke(1) // good
	b := h.Invoke(2) // bad -> fallback
	if a != 42 || b != 0 {
		t.Errorf("invokes = %d, %d", a, b)
	}
	uses, falls := h.Stats()
	if uses != 1 || falls != 1 {
		t.Errorf("stats = %d/%d", uses, falls)
	}
}

// TestSharedSupervisorsCount: goroutines share one Hybrid and one
// RobustnessService, and their counters add up to every call made.
func TestSharedSupervisorsCount(t *testing.T) {
	reference := nn.LeNet(16, 4, nn.BuildOptions{Weights: true, Seed: 10})
	svc, err := NewRobustnessService(reference, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	want, err := svc.reference.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	wrong := want.Clone()
	wrong.F32[0]++
	h := &Hybrid[*tensor.Tensor, bool]{
		Payload: func(claimed *tensor.Tensor) (bool, error) {
			v, err := svc.Check(in, claimed)
			return v.OK, err
		},
		Check:      func(ok bool) bool { return ok },
		SafeAction: func() bool { return false },
	}
	const workers, calls = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				claimed := want
				if i%5 == 0 {
					claimed = wrong
				}
				h.Invoke(claimed)
			}
		}()
	}
	wg.Wait()
	uses, falls := h.Stats()
	checks, anomalies := svc.Stats()
	if uses != workers*calls*4/5 || falls != workers*calls/5 || checks != workers*calls || anomalies != falls {
		t.Errorf("hybrid %d uses / %d fallbacks, service %d checks / %d anomalies after %d calls, a fifth of them wrong",
			uses, falls, checks, anomalies, workers*calls)
	}
}
