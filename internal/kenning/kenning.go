// Package kenning is the deployment-and-benchmarking framework of the
// toolchain — the reproduction of Antmicro's Kenning (§III, [10]): it
// chains the deployment steps (load → optimize → compile → deploy →
// measure) over any inference.Backend (host CPU, simulated accelerator,
// RISC-V SoC) as its interchangeable runtime targets, measures inference
// duration and resource usage, and "can automatically benchmark the
// processing quality of a given neural network and generate a confusion
// matrix for classification models and recall/precision graphs for
// detection algorithms".
package kenning

import (
	"fmt"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/dataset"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// PipelineConfig selects optimization steps (§III deployment steps 4-6)
// beyond the graph surgery of optimize.Pipeline, which always runs.
type PipelineConfig struct {
	// Quantize enables post-training INT8 weight quantization.
	Quantize    bool
	Granularity optimize.QuantGranularity
	// CalibrationSamples are inputs run through the optimized graph to
	// derive the activation QuantSchema (rep.Schema) — the artifact the
	// native INT8 runtime consumes. Empty skips calibration.
	CalibrationSamples []map[string]*tensor.Tensor
	// Prune applies magnitude pruning to this sparsity when > 0.
	Prune float64
}

// PipelineReport records what the pipeline did.
type PipelineReport struct {
	AppliedPasses []string
	QuantReport   *optimize.QuantReport
	PruneReport   *optimize.PruneReport
	// Schema is the calibrated activation schema (nil without
	// calibration samples).
	Schema      *nn.QuantSchema
	WeightBytes int64
}

// RunPipeline optimizes g in place for deployment.
func RunPipeline(g *nn.Graph, cfg PipelineConfig) (PipelineReport, error) {
	rep := PipelineReport{AppliedPasses: optimize.Pipeline(g)}
	if cfg.Prune > 0 {
		pr, err := optimize.MagnitudePrune(g, cfg.Prune)
		if err != nil {
			return rep, err
		}
		rep.PruneReport = &pr
	}
	if cfg.Quantize {
		qr, err := optimize.QuantizeWeights(g, optimize.QuantConfig{Granularity: cfg.Granularity})
		if err != nil {
			return rep, err
		}
		rep.QuantReport = &qr
	}
	// Calibrating after quantization makes the schema reflect the
	// deployed (quantized-weight) network.
	if len(cfg.CalibrationSamples) > 0 {
		schema, err := optimize.Calibrate(g, cfg.CalibrationSamples)
		if err != nil {
			return rep, err
		}
		rep.Schema = schema
	}
	rep.WeightBytes = g.WeightBytes()
	return rep, nil
}

// Evaluation is the measurement report for one backend and dataset.
type Evaluation struct {
	// Target names the backend the model ran on.
	Target    string
	Latency   cluster.LatencySummary
	Confusion *ConfusionMatrix
}

// Evaluate compiles the model once on the backend and runs the
// labelled samples through it, producing latency statistics and a
// confusion matrix. Each sample's feature vector is one row of the
// model's declared input (its Attrs.Shape); the graph is only read. A
// sample's latency is the executable's PredictLatency(1) when it has a
// latency model (a simulated accelerator, the RISC-V SoC), else the
// timed run on the host.
func Evaluate(g *nn.Graph, backend inference.Backend, samples []dataset.Sample, numClasses int) (Evaluation, error) {
	ev := Evaluation{Target: backend.Name()}
	exe, err := backend.Compile(g)
	if err != nil {
		return ev, err
	}
	model, _ := exe.(inference.LatencyModel)
	input := g.Inputs[0]
	shape := append([]int{1}, g.Node(input).Attrs.Shape...)
	cm := NewConfusionMatrix(numClasses)
	lats := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		in, err := tensor.FromSlice(s.X, shape...)
		if err != nil {
			return ev, fmt.Errorf("kenning: sample: %w", err)
		}
		start := time.Now()
		outs, err := exe.Run(map[string]*tensor.Tensor{input: in})
		lat := time.Since(start)
		if err != nil {
			return ev, err
		}
		if model != nil {
			if lat, err = model.PredictLatency(1); err != nil {
				return ev, err
			}
		}
		lats = append(lats, lat)
		if err := cm.Add(s.Label, tensor.ArgMax(outs[g.Outputs[0]])); err != nil {
			return ev, err
		}
	}
	ev.Latency = cluster.Summarize(lats)
	ev.Confusion = cm
	return ev, nil
}
