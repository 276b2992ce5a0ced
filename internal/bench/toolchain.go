package bench

import (
	"math"

	"vedliot/internal/accel"
	"vedliot/internal/dataset"
	"vedliot/internal/inference"
	"vedliot/internal/kenning"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
	"vedliot/internal/train"
)

// DeepCompression49 reproduces the §III compression claim on the Deep
// Compression reference subject (LeNet-300-100): prune, retrain with
// frozen zeros, cluster, Huffman-code, and compare accuracy before and
// after.
func DeepCompression49() (*Report, error) {
	r := newReport("§III — Deep Compression pipeline (LeNet-300-100 class MLP)")

	samples := dataset.Blobs(900, 784, 10, 0.15, 101)
	trainSet, testSet := dataset.Split(samples, 0.25)
	// Quick mode shrinks the hidden layers: training cost scales with the
	// parameter count while the compression ratio is governed by sparsity
	// and coding, so the headline check stays meaningful.
	dims := []int{784, 300, 100, 10}
	if Quick() {
		dims = []int{784, 128, 64, 10}
	}
	g := nn.MLP("lenet-300-100", dims, nn.BuildOptions{Weights: true, Seed: 102})
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: pick(20, 12), LR: 0.1, BatchSize: 32, Seed: 103}); err != nil {
		return nil, err
	}
	accBefore, err := train.Accuracy(g, testSet)
	if err != nil {
		return nil, err
	}

	// Deep Compression stage 1: prune, then retrain the surviving
	// connections (Han et al.'s prune-retrain loop).
	pruneRep, err := optimize.MagnitudePrune(g, 0.92)
	if err != nil {
		return nil, err
	}
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: pick(12, 10), LR: 0.05, BatchSize: 32, Seed: 104, FreezeZeros: true}); err != nil {
		return nil, err
	}
	// Stages 2+3: weight sharing and Huffman coding (no further
	// pruning: sparsity 0 leaves the retrained zeros untouched).
	rep, err := optimize.DeepCompress(g, optimize.DeepCompressConfig{Sparsity: 0, ClusterBits: 6})
	if err != nil {
		return nil, err
	}
	accAfter, err := train.Accuracy(g, testSet)
	if err != nil {
		return nil, err
	}

	r.linef("%-28s %12s", "stage", "bytes")
	for _, s := range rep.Stages {
		r.linef("%-28s %12d", s.Stage, s.Bytes)
	}
	r.linef("compression ratio: %.1fx (paper cites up to 49x [7])", rep.Ratio())
	r.linef("sparsity: %.1f%%, theoretical speed-up %.1fx",
		pruneRep.Sparsity()*100, pruneRep.TheoreticalSpeedup())
	r.linef("accuracy: %.3f -> %.3f (delta %+.3f)", accBefore, accAfter, accAfter-accBefore)

	r.check("baseline accuracy >= 0.8", accBefore >= 0.8)
	r.check("ratio in the deep-compression band (25-60x)", rep.Ratio() >= 25 && rep.Ratio() <= 60)
	r.check("accuracy loss <= 10pp", accBefore-accAfter <= 0.10)
	r.check("stage sizes monotonically non-increasing", func() bool {
		for i := 1; i < len(rep.Stages); i++ {
			if rep.Stages[i].Bytes > rep.Stages[i-1].Bytes {
				return false
			}
		}
		return true
	}())
	return r, nil
}

// TheoryVsHardware reproduces the §III observation that FLOP reductions
// overstate hardware gains: the same pruned model is evaluated on
// devices without zero-skipping, where only structured sparsity pays.
func TheoryVsHardware() (*Report, error) {
	r := newReport("§III — theoretical speed-ups vs hardware reality")
	g := nn.ResNet50(224, nn.BuildOptions{Weights: true, Seed: 7})

	unstructured := g.Clone()
	uRep, err := optimize.MagnitudePrune(unstructured, 0.8)
	if err != nil {
		return nil, err
	}
	structured := g.Clone()
	sRep, err := optimize.ChannelPrune(structured, 0.5)
	if err != nil {
		return nil, err
	}

	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		return nil, err
	}
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		return nil, err
	}
	dense, err := dev.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		return nil, err
	}
	um, err := dev.SparsityAwareEvaluate(w, tensor.INT8, 1, 0, uRep.Sparsity(), false)
	if err != nil {
		return nil, err
	}
	sm, err := dev.SparsityAwareEvaluate(w, tensor.INT8, 1, sRep.Sparsity(), 0, false)
	if err != nil {
		return nil, err
	}

	uTheory := uRep.TheoreticalSpeedup()
	uReal := dense.LatencyMS / um.LatencyMS
	sTheory := sRep.TheoreticalSpeedup()
	sReal := dense.LatencyMS / sm.LatencyMS
	r.linef("%-24s %10s %10s", "pruning", "theory", "hardware")
	r.linef("%-24s %9.2fx %9.2fx", "unstructured 80%", uTheory, uReal)
	r.linef("%-24s %9.2fx %9.2fx", "structured 50% channels", sTheory, sReal)
	r.check("unstructured theory >> hardware gain", uTheory > 2 && uReal < 1.2)
	r.check("structured pruning translates to hardware", sReal > 1.3)
	r.check("structured theory ~ hardware (within 2x)", sReal > sTheory/2)
	return r, nil
}

// KenningPipeline reproduces the framework's measurement reports:
// confusion matrix for a classifier, recall/precision for a detector,
// across two runtimes.
func KenningPipeline() (*Report, error) {
	r := newReport("§III — Kenning benchmarking (confusion matrix + PR curve)")

	// Classifier on two targets.
	samples := dataset.Blobs(600, 16, 4, 0.3, 55)
	trainSet, testSet := dataset.Split(samples, 0.25)
	g := nn.MLP("clf", []int{16, 32, 4}, nn.BuildOptions{Weights: true, Seed: 56})
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: 15, LR: 0.1, BatchSize: 16, Seed: 57}); err != nil {
		return nil, err
	}
	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		return nil, err
	}
	backends := []inference.Backend{
		inference.CPUBackend{},
		&accel.Backend{Device: dev, Precision: tensor.FP16},
	}
	var evs []kenning.Evaluation
	for _, backend := range backends {
		ev, err := kenning.Evaluate(g, backend, testSet, 4)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
		r.linef("target %-18s accuracy %.3f  latency mean %v p95 %v",
			ev.Target, ev.Confusion.Accuracy(), ev.Latency.Mean, ev.Latency.P95)
	}
	r.linef("confusion matrix (%s):", evs[0].Target)
	for _, line := range splitLines(evs[0].Confusion.String()) {
		r.linef("  %s", line)
	}
	cpuAcc, simAcc := evs[0].Confusion.Accuracy(), evs[1].Confusion.Accuracy()
	r.check("classifier accuracy >= 0.85", cpuAcc >= 0.85)
	r.check("quality identical across runtimes", math.Abs(cpuAcc-simAcc) < 1e-9)

	// Detector PR curve on the arc-detection task using an energy
	// feature score.
	arcs := dataset.ArcCurrent(300, dataset.DefaultArcConfig())
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
	ap := kenning.AveragePrecision(curve)
	r.linef("detector PR: %d points, AP = %.3f", len(curve), ap)
	for _, q := range []int{0, len(curve) / 4, len(curve) / 2, len(curve) - 1} {
		p := curve[q]
		r.linef("  thr %.3f precision %.3f recall %.3f", p.Threshold, p.Precision, p.Recall)
	}
	r.check("detector AP >= 0.9", ap >= 0.9)
	return r, nil
}

// waveformNoiseScore is the hand-crafted arc score: high-frequency
// energy in the window's second half relative to its first half.
func waveformNoiseScore(x []float32) float64 {
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

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// AblationQuantGranularity compares per-tensor and per-channel PTQ.
func AblationQuantGranularity() (*Report, error) {
	r := newReport("Ablation — quantization granularity (SNR)")
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 61})
	// Give channels very different scales to expose the difference.
	for _, n := range g.Nodes {
		w := n.Weight(nn.WeightKey)
		if w == nil || len(w.Shape) != 4 {
			continue
		}
		outC := w.Shape[0]
		per := w.NumElements() / outC
		for oc := 0; oc < outC; oc++ {
			scale := float32(math.Pow(4, float64(oc%4)))
			for i := 0; i < per; i++ {
				w.F32[oc*per+i] *= scale
			}
		}
	}
	betterEverywhere := true
	r.linef("%-14s %12s %12s", "layer", "per-tensor", "per-channel")
	for _, n := range g.Nodes {
		w := n.Weight(nn.WeightKey)
		if w == nil || len(w.Shape) != 4 {
			continue
		}
		st := optimize.QuantizationSNR(w, optimize.PerTensor)
		sc := optimize.QuantizationSNR(w, optimize.PerChannel)
		if sc < st {
			betterEverywhere = false
		}
		r.linef("%-14s %10.1fdB %10.1fdB", n.Name, st, sc)
	}
	r.check("per-channel SNR >= per-tensor on every conv", betterEverywhere)
	return r, nil
}

// AblationPruning contrasts structured and unstructured pruning under
// equal-FLOP budgets.
func AblationPruning() (*Report, error) {
	r := newReport("Ablation — pruning structure at matched theoretical FLOPs")
	base := nn.MobileNetV3(224, nn.BuildOptions{Weights: true, Seed: 71})
	dev, err := accel.FindDevice("ZU3 B2304")
	if err != nil {
		return nil, err
	}
	w, err := accel.WorkloadFromGraph(base, tensor.INT8)
	if err != nil {
		return nil, err
	}
	dense, err := dev.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		return nil, err
	}
	// Both prune to ~50% of MACs.
	um, err := dev.SparsityAwareEvaluate(w, tensor.INT8, 1, 0, 0.5, false)
	if err != nil {
		return nil, err
	}
	sm, err := dev.SparsityAwareEvaluate(w, tensor.INT8, 1, 0.5, 0, false)
	if err != nil {
		return nil, err
	}
	r.linef("dense:        %.2f ms", dense.LatencyMS)
	r.linef("unstructured: %.2f ms (x%.2f)", um.LatencyMS, dense.LatencyMS/um.LatencyMS)
	r.linef("structured:   %.2f ms (x%.2f)", sm.LatencyMS, dense.LatencyMS/sm.LatencyMS)
	r.check("structured strictly faster than unstructured", sm.LatencyMS < um.LatencyMS)
	return r, nil
}
