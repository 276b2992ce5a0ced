// DC arc detection (paper §V-B): a low-latency detector over current
// waveforms with an ultra-low false-negative requirement, supervised by
// the architectural-hybridization safety pattern — when the detector's
// input looks compromised, the system de-energizes (the safe action).
package main

import (
	"fmt"
	"log"

	"vedliot/internal/accel"
	"vedliot/internal/dataset"
	"vedliot/internal/kenning"
	"vedliot/internal/nn"
	"vedliot/internal/safety"
	"vedliot/internal/tensor"
)

func main() {
	cfg := dataset.DefaultArcConfig()
	arcs := dataset.ArcCurrent(400, cfg)

	// Score every window with the high-frequency-energy detector and
	// sweep the threshold for the FNR target.
	scores := make([]float64, len(arcs))
	truth := make([]bool, len(arcs))
	for i, a := range arcs {
		scores[i] = arcScore(a.X)
		truth[i] = a.Arc
	}
	curve, err := kenning.PRCurve(scores, truth)
	if err != nil {
		log.Fatal(err)
	}
	var op kenning.PRPoint
	for _, p := range curve {
		op = p
		if p.Recall >= 0.995 {
			break
		}
	}
	fmt.Printf("operating point for FNR <= 0.5%%: threshold %.3f, recall %.3f, precision %.3f\n",
		op.Threshold, op.Recall, op.Precision)

	// Latency budget on the FPGA DPU module.
	g := nn.ArcNet(cfg.Window, nn.BuildOptions{})
	dev, _ := accel.FindDevice("ZU3 B2304")
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		log.Fatal(err)
	}
	m, err := dev.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		log.Fatal(err)
	}
	windowMS := float64(cfg.Window) / cfg.SampleRate * 1000
	fmt.Printf("spark-to-decision: window %.2f ms + inference %.2f ms = %.2f ms on %s\n\n",
		windowMS, m.LatencyMS, windowMS+m.LatencyMS, dev.Name)

	// Hybrid supervision: the payload is the detector; the check is the
	// input-quality monitor; the safe action trips the breaker.
	monitorCfg := safety.DefaultSeriesMonitorConfig()
	type decision struct {
		arc     bool
		tripped bool
	}
	trips := 0
	hybrid := &safety.Hybrid[decision]{
		Check:      func(d decision) bool { return !d.tripped },
		SafeAction: func() decision { trips++; return decision{arc: true, tripped: true} },
	}
	detections, faults := 0, 0
	for _, a := range arcs[:100] {
		window := a.X
		hybrid.Payload = func() (decision, error) {
			// Input-quality gate: a compromised sensor forces the safe
			// action regardless of the classifier's opinion.
			alarms := safety.MonitorSeries(window, monitorCfg)
			if len(alarms) > len(window)/4 {
				return decision{tripped: true}, nil
			}
			return decision{arc: arcScore(window) > op.Threshold}, nil
		}
		d := hybrid.Invoke()
		if d.arc {
			detections++
		}
		if d.tripped {
			faults++
		}
	}
	used, fellBack := hybrid.Stats()
	fmt.Printf("hybrid supervision over 100 windows: %d arc decisions, %d payload uses, %d safe-action fallbacks\n",
		detections, used, fellBack)
}

// arcScore is the high-frequency-energy ratio between the window's
// second and first halves.
func arcScore(x []float32) float64 {
	half := len(x) / 2
	return diffPower(x[half:]) / (diffPower(x[:half]) + 1e-9)
}

func diffPower(x []float32) float64 {
	var s float64
	for i := 1; i < len(x); i++ {
		d := float64(x[i] - x[i-1])
		s += d * d
	}
	return s / float64(len(x)-1)
}
