package accel

import (
	"fmt"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Backend adapts a modeled Device to the inference.Backend interface:
// programs compiled for a simulated accelerator execute functionally on
// the host engine while latency, throughput and power come from the
// device's roofline model. The real CPU engine (inference.CPUBackend)
// and every simulated accelerator therefore satisfy one compile-and-run
// interface — the cross-accelerator methodology of the paper's Fig. 4
// evaluation, where the same network is deployed unchanged across
// heterogeneous targets.
//
// When the backend runs at INT8 and a calibration schema is attached,
// functional execution compiles through inference.QuantizedBackend: the
// native quantized engine, or the FP32 engine when the schema does not
// cover the graph. The INT8-only device models (EdgeTPU class) then
// produce genuinely quantized outputs, making their roofline
// predictions honest about the arithmetic the modeled silicon performs.
type Backend struct {
	Device *Device
	// Precision is the precision the device runs the model at. The
	// zero value (FP32) is used as-is; use NewBackend to default to the
	// device's fastest supported precision.
	Precision tensor.DType
	// Schema is the activation calibration artifact enabling native
	// INT8 execution. Nil keeps the FP32 functional path (with INT8
	// weights dequantized at compile time), preserving bit-exact parity
	// with the host engine.
	Schema *nn.QuantSchema
}

// NewBackend wraps a device, running it at its best supported precision.
func NewBackend(d *Device) *Backend {
	return &Backend{Device: d, Precision: d.BestPrecision()}
}

// NewQuantizedBackend wraps a device for native INT8 execution under
// the given calibration schema.
func NewQuantizedBackend(d *Device, schema *nn.QuantSchema) *Backend {
	return &Backend{Device: d, Precision: tensor.INT8, Schema: schema}
}

// Name implements inference.Backend.
func (b *Backend) Name() string { return "accel:" + b.Device.Name }

// Compile implements inference.Backend: it compiles the graph on the
// host engine for functional execution and derives the device-model
// workload once, so every later latency prediction is a closed-form
// roofline evaluation. The graph is only read (on the artifact path it
// is the registry's, shared by every scheduler compiling it).
func (b *Backend) Compile(g *nn.Graph) (inference.Executable, error) {
	if b.Device == nil {
		return nil, fmt.Errorf("accel: backend has no device")
	}
	if !b.Device.Supports(b.Precision) {
		return nil, fmt.Errorf("accel: %s does not support %s", b.Device.Name, b.Precision)
	}
	var host inference.Backend = inference.CPUBackend{}
	if b.Precision == tensor.INT8 && b.Schema != nil {
		host = inference.QuantizedBackend{Schema: b.Schema}
	}
	exec, err := host.Compile(g)
	if err != nil {
		return nil, err
	}
	stats, err := g.Stats(1)
	if err != nil {
		return nil, err
	}
	w := workloadFromStats(g.Name, stats, b.Precision)
	return &Program{exec: exec, device: b.Device, workload: w, precision: b.Precision}, nil
}

var _ inference.Backend = (*Backend)(nil)

// Program is a model compiled for a simulated accelerator: the embedded
// host executable supplies functional execution (the FP32 engine, or
// the native quantized engine for INT8 deployments with a calibration
// schema), and the device model predicts what the target hardware would
// measure.
type Program struct {
	exec      inference.Executable
	device    *Device
	workload  Workload
	precision tensor.DType
}

var _ inference.Executable = (*Program)(nil)

// Run implements inference.Executable.
func (p *Program) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return p.exec.Run(inputs)
}

// RunBatch implements inference.Executable.
func (p *Program) RunBatch(batches []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	return p.exec.RunBatch(batches)
}

// Quantized reports whether functional execution runs on the native
// INT8 engine.
func (p *Program) Quantized() bool {
	_, ok := p.exec.(*inference.QuantEngine)
	return ok
}

// Predict evaluates the device's roofline model for a batch of the
// compiled workload.
func (p *Program) Predict(batch int) (Measurement, error) {
	return p.device.Evaluate(p.workload, p.precision, batch)
}

// PredictLatency returns the modeled end-to-end latency for a batch.
func (p *Program) PredictLatency(batch int) (time.Duration, error) {
	m, err := p.Predict(batch)
	if err != nil {
		return 0, err
	}
	return time.Duration(m.LatencyMS * float64(time.Millisecond)), nil
}
