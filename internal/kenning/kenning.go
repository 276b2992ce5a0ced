// Package kenning is the deployment-and-benchmarking framework of the
// toolchain — the reproduction of Antmicro's Kenning (§III, [10]): it
// chains the deployment steps (load → optimize → compile → deploy →
// measure) over interchangeable runtime targets, measures inference
// duration and resource usage, and "can automatically benchmark the
// processing quality of a given neural network and generate a confusion
// matrix for classification models and recall/precision graphs for
// detection algorithms".
package kenning

import (
	"fmt"
	"time"

	"vedliot/internal/accel"
	"vedliot/internal/cluster"
	"vedliot/internal/dataset"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// Target is a runtime a model can be deployed to.
type Target interface {
	// Name identifies the target in reports.
	Name() string
	// Deploy installs a compiled model.
	Deploy(g *nn.Graph) error
	// Infer runs one input and returns the output plus the inference
	// latency attributed to the target (wall time for real targets,
	// modeled time for simulated accelerators).
	Infer(in *tensor.Tensor) (*tensor.Tensor, time.Duration, error)
}

// CPUTarget executes on the host through the compiled execution-plan
// engine — Kenning's "native runtime" role. Deploy is the compile step;
// Infer measures real wall time per inference. With a calibration
// Schema attached, Deploy compiles the native INT8 plan instead
// (falling back to FP32 when the graph cannot be lowered), so the
// measured latencies reflect genuinely quantized execution.
type CPUTarget struct {
	// Options configure engine compilation (worker pool size etc.).
	Options []inference.Option
	// Schema enables the native quantized runtime.
	Schema *nn.QuantSchema

	exe singleRunner
}

// singleRunner is the RunSingle surface shared by the FP32 and
// quantized engines.
type singleRunner interface {
	RunSingle(*tensor.Tensor) (*tensor.Tensor, error)
}

// Name implements Target. Before Deploy it names the intent; after
// Deploy it names the runtime actually compiled, so a quantized deploy
// that fell back to FP32 (schema not covering the graph) is not
// mislabeled in measurement reports.
func (c *CPUTarget) Name() string {
	if _, quantized := c.exe.(*inference.QuantEngine); quantized || (c.exe == nil && c.Schema != nil) {
		return "cpu-int8"
	}
	return "cpu-reference"
}

// Deploy implements Target.
func (c *CPUTarget) Deploy(g *nn.Graph) error {
	if c.Schema != nil {
		exe, err := inference.QuantizedBackend{Schema: c.Schema}.Compile(g, c.Options...)
		if err != nil {
			return err
		}
		c.exe = exe.(singleRunner)
		return nil
	}
	eng, err := inference.Compile(g, c.Options...)
	if err != nil {
		return err
	}
	c.exe = eng
	return nil
}

// Infer implements Target.
func (c *CPUTarget) Infer(in *tensor.Tensor) (*tensor.Tensor, time.Duration, error) {
	if c.exe == nil {
		return nil, 0, fmt.Errorf("kenning: target not deployed")
	}
	start := time.Now()
	out, err := c.exe.RunSingle(in)
	return out, time.Since(start), err
}

// SimTarget deploys through a Device-backed accel.Backend: execution is
// functionally accurate on the host (bit-exact FP32, or the native
// quantized engine for INT8 deployments with a Schema) while the
// reported latency comes from the accelerator's roofline model — the
// "deploy to target hardware and measure" role when the hardware is
// simulated.
type SimTarget struct {
	Device    *accel.Device
	Precision tensor.DType
	// Schema enables native INT8 functional execution on INT8
	// deployments.
	Schema *nn.QuantSchema

	program *accel.Program
	latency time.Duration
}

// Name implements Target.
func (s *SimTarget) Name() string { return "sim:" + s.Device.Name }

// Deploy implements Target.
func (s *SimTarget) Deploy(g *nn.Graph) error {
	backend := &accel.Backend{Device: s.Device, Precision: s.Precision, Schema: s.Schema}
	exe, err := backend.Compile(g)
	if err != nil {
		return err
	}
	prog := exe.(*accel.Program)
	lat, err := prog.PredictLatency(1)
	if err != nil {
		return err
	}
	s.program = prog
	s.latency = lat
	return nil
}

// Infer implements Target.
func (s *SimTarget) Infer(in *tensor.Tensor) (*tensor.Tensor, time.Duration, error) {
	if s.program == nil {
		return nil, 0, fmt.Errorf("kenning: target not deployed")
	}
	out, err := s.program.RunSingle(in)
	return out, s.latency, err
}

// PipelineConfig selects optimization steps (§III deployment steps 4-6).
type PipelineConfig struct {
	// Passes are the graph-surgery passes; nil = StandardPasses.
	Passes []optimize.Pass
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
	var rep PipelineReport
	passes := cfg.Passes
	if passes == nil {
		passes = optimize.StandardPasses()
	}
	applied, err := optimize.Pipeline(g, passes, 0)
	if err != nil {
		return rep, err
	}
	rep.AppliedPasses = applied
	if err := g.InferShapes(1); err != nil {
		return rep, err
	}
	if cfg.Prune > 0 {
		pr, err := optimize.MagnitudePrune(g, cfg.Prune)
		if err != nil {
			return rep, err
		}
		rep.PruneReport = &pr
	}
	if cfg.Quantize {
		qr, err := optimize.QuantizeWeights(g, optimize.QuantConfig{
			Granularity:        cfg.Granularity,
			CalibrationSamples: cfg.CalibrationSamples,
		})
		if err != nil {
			return rep, err
		}
		rep.QuantReport = &qr
		rep.Schema = qr.Schema
	} else if len(cfg.CalibrationSamples) > 0 {
		schema, err := optimize.Calibrate(g, cfg.CalibrationSamples)
		if err != nil {
			return rep, err
		}
		rep.Schema = schema
	}
	rep.WeightBytes = g.WeightBytes()
	return rep, nil
}

// Evaluation is the measurement report for one target and dataset.
type Evaluation struct {
	Target    string
	Latency   cluster.LatencySummary
	Confusion *ConfusionMatrix
}

// Evaluate deploys the model to the target and runs the labelled
// samples, producing latency statistics and a confusion matrix.
// Sample feature vectors are reshaped to the model input.
func Evaluate(g *nn.Graph, target Target, samples []dataset.Sample, numClasses int) (Evaluation, error) {
	ev := Evaluation{Target: target.Name()}
	if err := target.Deploy(g); err != nil {
		return ev, err
	}
	if err := g.InferShapes(1); err != nil {
		return ev, err
	}
	inShape := g.Node(g.Inputs[0]).OutShape
	cm := NewConfusionMatrix(numClasses)
	var lats []time.Duration
	for _, s := range samples {
		in := tensor.New(tensor.FP32, inShape...)
		if len(s.X) != in.NumElements() {
			return ev, fmt.Errorf("kenning: sample dim %d != input %d", len(s.X), in.NumElements())
		}
		copy(in.F32, s.X)
		out, lat, err := target.Infer(in)
		if err != nil {
			return ev, err
		}
		lats = append(lats, lat)
		if err := cm.Add(s.Label, tensor.ArgMax(out)); err != nil {
			return ev, err
		}
	}
	ev.Latency = cluster.Summarize(lats)
	ev.Confusion = cm
	return ev, nil
}
