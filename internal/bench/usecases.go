package bench

import (
	"vedliot/internal/accel"
	"vedliot/internal/core"
	"vedliot/internal/dataset"
	"vedliot/internal/inference"
	"vedliot/internal/kenning"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/safety"
	"vedliot/internal/tensor"
	"vedliot/internal/track"
	"vedliot/internal/train"
)

// SafetyMonitors reproduces the §IV-B monitor evaluation: injected
// sensor errors and injected weight faults, with detection and
// false-alarm rates.
func SafetyMonitors() (*Report, error) {
	r := newReport("§IV-B — safety monitors under fault injection")

	// Input monitors.
	clean := dataset.CleanSeries(dataset.SeriesConfig{N: 6000, Period: 50, Noise: 0.05, Seed: 11})
	bad := dataset.InjectErrors(clean, dataset.InjectConfig{Rate: 0.01, Seed: 12})
	cfg := safety.DefaultSeriesMonitorConfig()
	rep := safety.EvaluateSeriesMonitor(bad, cfg, cfg.Window/2)
	r.linef("input monitor (rate 1%% injected):")
	for kind := dataset.ErrOutlier; kind < dataset.NumErrorKinds; kind++ {
		r.linef("  %-12s recall %.2f", kind, rep.Recall[kind])
	}
	r.linef("  false-alarm rate %.4f", rep.FalseAlarmRate)
	r.check("outlier recall >= 0.6", rep.Recall[dataset.ErrOutlier] >= 0.6)
	r.check("stuck-at recall >= 0.6", rep.Recall[dataset.ErrStuckAt] >= 0.6)
	r.check("noise-burst recall >= 0.6", rep.Recall[dataset.ErrNoiseBurst] >= 0.6)
	r.check("false-alarm rate <= 5%", rep.FalseAlarmRate <= 0.05)

	// Image-noise monitor.
	cleanImg := dataset.SceneImage(64, 64, 0, 13)
	noisyImg := dataset.SceneImage(64, 64, 0.25, 13)
	cs, ns := safety.ImageNoiseScore(cleanImg), safety.ImageNoiseScore(noisyImg)
	r.linef("image monitor: clean score %.4f, noisy score %.4f", cs, ns)
	r.check("image monitor separates noise", ns > 2*cs)

	// Output robustness service against weight faults.
	reference := nn.LeNet(16, 4, nn.BuildOptions{Weights: true, Seed: 14})
	deployed := reference.Clone()
	svc, err := safety.NewRobustnessService(reference, 1e-4)
	if err != nil {
		return nil, err
	}
	probe := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range probe.F32 {
		probe.F32[i] = float32(i%13)/13 - 0.5
	}
	// Healthy submission.
	healthyOut, err := runModel(deployed, probe)
	if err != nil {
		return nil, err
	}
	v1, err := svc.Check(probe, healthyOut)
	if err != nil {
		return nil, err
	}
	// Faulty submission.
	safety.InjectWeightFaults(deployed, 300, 15)
	faultyOut, err := runModel(deployed, probe)
	if err != nil {
		return nil, err
	}
	v2, err := svc.Check(probe, faultyOut)
	if err != nil {
		return nil, err
	}
	r.linef("robustness service: healthy divergence %.2g, faulty divergence %.2g", v1.Divergence, v2.Divergence)
	r.check("healthy output accepted", v1.OK)
	r.check("300 weight bit flips detected", !v2.OK)
	return r, nil
}

func runModel(g *nn.Graph, in *tensor.Tensor) (*tensor.Tensor, error) {
	eng, err := inference.Compile(g)
	if err != nil {
		return nil, err
	}
	return eng.RunSingle(in)
}

// PAEB reproduces the §V-A offload study: the braking-distance deadline
// shrinks with speed, and the offload decision flips with network
// quality.
func PAEB() (*Report, error) {
	r := newReport("§V-A — Pedestrian Automatic Emergency Braking offload study")
	g := nn.YoloV4(416, 80, nn.BuildOptions{})
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		return nil, err
	}
	onCar, err := accel.FindDevice("Xavier NX")
	if err != nil {
		return nil, err
	}
	edge, err := accel.FindDevice("GTX1660")
	if err != nil {
		return nil, err
	}
	const (
		frameBytes  = 500_000
		resultBytes = 2_000
		radioTxW    = 2.5
	)
	r.linef("%-14s %-12s %9s %9s %9s %8s %9s", "speed km/h", "network", "deadline", "local ms", "edge ms", "offload", "ok")
	offloadOn5G, localOnLTE := false, false
	for _, speed := range []float64{30, 50, 80} {
		// Perception deadline: allow ~10% of the time-to-stop from
		// 25 m at this speed (v in m/s; crude but monotone in speed).
		v := speed / 3.6
		deadline := 0.10 * (25 / v) * 1000
		for _, link := range core.MobileProfiles() {
			plan, err := core.PlanOffload(w, onCar, edge, tensor.INT8, link, frameBytes, resultBytes, deadline, radioTxW)
			if err != nil {
				return nil, err
			}
			r.linef("%-14.0f %-12s %9.0f %9.1f %9.1f %8v %9v",
				speed, link.Name, deadline, plan.LocalMS, plan.EdgeMS, plan.Offload, plan.MeetsDeadline)
			if speed == 50 && link.Name == core.NR5GmmWave.Name && plan.Offload {
				offloadOn5G = true
			}
			if speed == 50 && link.Name == core.LTE.Name && !plan.Offload {
				localOnLTE = true
			}
		}
	}
	r.check("LTE keeps inference on-car", localOnLTE)
	r.check("5G mmWave enables offloading", offloadOn5G)
	return r, nil
}

// MotorCondition reproduces the §V-B motor-monitoring study: classifier
// accuracy on synthetic vibration signatures plus the battery-life
// budget on an MCU-class NPU.
func MotorCondition() (*Report, error) {
	r := newReport("§V-B — motor condition classification (battery box)")
	cfg := dataset.DefaultMotorConfig()
	samples := dataset.MotorVibration(900, cfg)
	dataset.Normalize(samples)
	trainSet, testSet := dataset.Split(samples, 0.25)

	// Feature front-end + MLP head (the trainable configuration).
	g := nn.MLP("motor-clf", []int{cfg.Window, 64, int(dataset.NumMotorStates)},
		nn.BuildOptions{Weights: true, Seed: 31})
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: 20, LR: 0.05, BatchSize: 16, Seed: 32}); err != nil {
		return nil, err
	}
	ev, err := kenning.Evaluate(g, inference.CPUBackend{}, testSet, int(dataset.NumMotorStates))
	if err != nil {
		return nil, err
	}
	r.linef("classifier accuracy on %d test windows: %.3f", len(testSet), ev.Confusion.Accuracy())
	for st := dataset.MotorState(0); st < dataset.NumMotorStates; st++ {
		r.linef("  %-14s recall %.2f", st, ev.Confusion.Recall(int(st)))
	}
	r.check("accuracy >= 0.8", ev.Confusion.Accuracy() >= 0.8)
	r.check("bearing-fault recall >= 0.8", ev.Confusion.Recall(int(dataset.MotorBearingFault)) >= 0.8)

	// Energy budget on the MCU NPU: one inference per second.
	npu, err := accel.FindDevice("MAX78000 NPU")
	if err != nil {
		return nil, err
	}
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		return nil, err
	}
	m, err := npu.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		return nil, err
	}
	// 2x AA lithium: ~3000 mAh @ 3 V = 32.4 kJ.
	const batteryMJ = 32.4e6
	perInferenceMJ := m.EnergyPerInferenceMJ()
	idleMJPerS := npu.IdleW * 1000
	perSecondMJ := perInferenceMJ + idleMJPerS
	days := batteryMJ / perSecondMJ / 86400
	r.linef("NPU inference: %.2f ms, %.3f mJ; 1 Hz duty -> battery life %.0f days", m.LatencyMS, perInferenceMJ, days)
	r.check("inference under 50 ms", m.LatencyMS < 50)
	r.check("battery life > 30 days at 1 Hz", days > 30)
	return r, nil
}

// ArcDetection reproduces the §V-B arc-detection study: end-to-end
// latency from spark to decision and the false-negative/threshold
// trade-off.
func ArcDetection() (*Report, error) {
	r := newReport("§V-B — DC arc detection (latency + FNR)")
	cfg := dataset.DefaultArcConfig()
	arcs := dataset.ArcCurrent(600, cfg)

	// Detector: windowed noise-power score with threshold sweep.
	scores := make([]float64, len(arcs))
	truth := make([]bool, len(arcs))
	for i, a := range arcs {
		scores[i] = waveformNoiseScore(a.X)
		truth[i] = a.Arc
	}
	curve, err := kenning.PRCurve(scores, truth)
	if err != nil {
		return nil, err
	}
	// Find the lowest threshold reaching recall ~1 (ultra-low FNR).
	var opPoint kenning.PRPoint
	for _, p := range curve {
		opPoint = p
		if p.Recall >= 0.995 {
			break
		}
	}
	r.linef("detector operating point: threshold %.3f, recall %.3f (FNR %.3f), precision %.3f",
		opPoint.Threshold, opPoint.Recall, 1-opPoint.Recall, opPoint.Precision)
	r.check("FNR <= 1%", 1-opPoint.Recall <= 0.01)
	r.check("precision at that point >= 0.7", opPoint.Precision >= 0.7)

	// Latency budget: sensing window fill + inference on the FPGA DPU.
	g := nn.ArcNet(cfg.Window, nn.BuildOptions{})
	dev, err := accel.FindDevice("ZU3 B2304")
	if err != nil {
		return nil, err
	}
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		return nil, err
	}
	m, err := dev.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		return nil, err
	}
	// Worst case: arc ignites right after a window starts -> full
	// window fill + preprocessing + inference.
	windowMS := float64(cfg.Window) / cfg.SampleRate * 1000
	const preprocessMS = 0.2
	total := windowMS + preprocessMS + m.LatencyMS
	r.linef("latency budget: window %.2f ms + preprocess %.2f ms + inference %.2f ms = %.2f ms",
		windowMS, preprocessMS, m.LatencyMS, total)
	r.check("spark-to-decision under 25 ms", total < 25)
	return r, nil
}

// SmartMirror reproduces the §V-C pipeline (Fig. 5): per-stage compute
// of the four networks plus trackers and fusion, against the 30 FPS
// budget and the uRECS power envelope.
func SmartMirror() (*Report, error) {
	r := newReport("§V-C / Fig. 5 — smart mirror pipeline on uRECS")

	stages := []struct {
		name string
		g    *nn.Graph
		rate float64 // invocations per second
	}{
		{"face detection (WiderFace)", nn.FaceDetectNet(96, nn.BuildOptions{}), 30},
		{"face embedding (FaceNet)", nn.FaceEmbedNet(64, 128, nn.BuildOptions{}), 10},
		{"object+gesture (YOLO tiny)", nn.YoloV4Tiny(416, 80, nn.BuildOptions{}), 15},
		{"gesture classifier", nn.GestureNet(64, 8, nn.BuildOptions{}), 15},
		{"speech (DeepSpeech-like)", nn.SpeechNet(100, 26, 29, nn.BuildOptions{}), 2},
	}
	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		return nil, err
	}
	r.linef("%-28s %10s %10s %12s", "stage", "ms/frame", "Hz", "GPU load %")
	var totalLoad float64
	ok := true
	for _, st := range stages {
		w, err := accel.WorkloadFromGraph(st.g, tensor.INT8)
		if err != nil {
			return nil, err
		}
		m, err := dev.Evaluate(w, tensor.INT8, 1)
		if err != nil {
			return nil, err
		}
		load := m.LatencyMS * st.rate / 1000 * 100
		totalLoad += load
		if m.LatencyMS > 1000/st.rate {
			ok = false
		}
		r.linef("%-28s %10.2f %10.0f %12.1f", st.name, m.LatencyMS, st.rate, load)
	}
	r.linef("aggregate accelerator load: %.0f%%", totalLoad)
	r.check("every stage meets its frame budget", ok)
	r.check("aggregate load under 100%", totalLoad < 100)

	// Tracking + fusion on two people crossing the mirror's view.
	tracker := track.NewTracker(track.DefaultKalmanConfig(), 60, 3)
	for i := 0; i < 30; i++ {
		tracker.Step([]track.Detection{
			{P: track.Point{X: 100 + float64(i)*8, Y: 200}, Label: "alice"},
			{P: track.Point{X: 500 - float64(i)*8, Y: 220}, Label: "bob"},
		})
	}
	r.linef("tracker holds %d identities after 30 frames of crossing paths", len(tracker.Tracks()))
	r.check("both identities tracked through crossing", len(tracker.Tracks()) == 2)

	// Power envelope: Jetson NX module in uRECS at the aggregate load.
	chassis := microserver.NewURECS()
	if _, err := chassis.Mount("Jetson Xavier NX"); err != nil {
		return nil, err
	}
	power := chassis.PowerW(map[int]float64{0: totalLoad / 100})
	r.linef("uRECS power at this load: %.1f W (envelope 15 W + %.1f W baseboard)", power, chassis.BaseboardW)
	r.check("pipeline fits the uRECS envelope", power < 15+chassis.BaseboardW)
	return r, nil
}
