// Package accel models deep-learning accelerators analytically.
//
// The paper evaluates physical devices (Fig. 3 survey, Fig. 4 YoloV4
// measurements). Those devices are replaced here by calibrated roofline
// models: each device has per-precision peak throughput, memory
// bandwidth, a batch-dependent utilization curve and an idle/dynamic
// power split. The model reproduces the *shape* of the paper's results —
// which device wins, how batch size and precision move the operating
// points, and the ~1 TOPS/W efficiency cluster — without the hardware.
package accel

import (
	"fmt"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Class groups devices the way the paper's Fig. 4 legend does.
type Class int

// Device classes.
const (
	ClassCPU Class = iota
	ClassGPU
	ClassEmbeddedGPU
	ClassFPGA
	ClassASIC
	ClassMCU
	ClassIPCore
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassCPU:
		return "CPU"
	case ClassGPU:
		return "GPU"
	case ClassEmbeddedGPU:
		return "eGPU"
	case ClassFPGA:
		return "FPGA"
	case ClassASIC:
		return "ASIC"
	case ClassMCU:
		return "MCU"
	case ClassIPCore:
		return "IP"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Device is one accelerator operating point.
type Device struct {
	Name  string
	Class Class

	// PeakGOPS maps precision to peak throughput in GOPS (ops/ns).
	// Missing precisions are unsupported.
	PeakGOPS map[tensor.DType]float64

	// MemBWGBs is the sustained external memory bandwidth in GB/s.
	MemBWGBs float64

	// IdleW and MaxW bound the power model: P = idle + u*(max-idle)
	// where u is effective utilization.
	IdleW float64
	MaxW  float64

	// SatBatch is the batch size at which the device reaches ~2/3 of its
	// peak utilization (wide accelerators need batching; CPUs do not).
	SatBatch float64

	// MaxUtil is the ceiling on achievable fraction of peak for real
	// convolutional workloads (dataflow and memory stalls).
	MaxUtil float64

	// OverheadMS is a fixed per-batch launch overhead in milliseconds
	// (kernel launches, DMA setup).
	OverheadMS float64
}

// Supports reports whether the device executes the given precision.
func (d *Device) Supports(p tensor.DType) bool {
	_, ok := d.PeakGOPS[p]
	return ok
}

// BestPrecision returns the fastest supported precision.
func (d *Device) BestPrecision() tensor.DType {
	best := tensor.FP32
	bestV := -1.0
	for p, v := range d.PeakGOPS {
		if v > bestV {
			best, bestV = p, v
		}
	}
	return best
}

// Workload summarizes a network's demand for the roofline evaluation.
type Workload struct {
	Name string
	// OpsPerInference counts elementary operations for batch 1.
	OpsPerInference int64
	// WeightBytes is the parameter footprint at the run precision.
	WeightBytes int64
	// ActivationBytes is the total activation traffic per inference.
	ActivationBytes int64
}

// WorkloadFromGraph derives a Workload from g's batch-1 statistics.
// Weight and activation footprints are scaled to the precision's element
// size.
func WorkloadFromGraph(g *nn.Graph, precision tensor.DType) (Workload, error) {
	stats, err := g.Stats(1)
	if err != nil {
		return Workload{}, err
	}
	return workloadFromStats(g.Name, stats, precision), nil
}

// workloadFromStats normalizes graph statistics to one inference.
func workloadFromStats(name string, stats nn.GraphStats, precision tensor.DType) Workload {
	batch := int64(stats.Batch)
	if batch <= 0 {
		batch = 1
	}
	elem := int64(precision.Size())
	return Workload{
		Name:            name,
		OpsPerInference: stats.Ops / batch,
		WeightBytes:     stats.Params * elem,
		ActivationBytes: stats.TotalActivationBytes / batch / 4 * elem,
	}
}

// Measurement is one simulated operating point — a dot in Fig. 4.
type Measurement struct {
	Device    string
	Class     Class
	Workload  string
	Precision tensor.DType
	Batch     int

	// LatencyMS is the end-to-end latency for the whole batch.
	LatencyMS float64
	// GOPS is the achieved throughput (ops retired per second / 1e9).
	GOPS float64
	// PowerW is the average power during the run.
	PowerW float64
	// Bound reports the roofline regime: "compute" or "memory".
	Bound string
}

// TOPSW returns achieved efficiency in TOPS/W.
func (m Measurement) TOPSW() float64 {
	if m.PowerW == 0 {
		return 0
	}
	return m.GOPS / 1000 / m.PowerW
}

// EnergyPerInferenceMJ returns millijoules per single inference.
func (m Measurement) EnergyPerInferenceMJ() float64 {
	if m.Batch == 0 {
		return 0
	}
	return m.PowerW * m.LatencyMS / float64(m.Batch)
}

// Evaluate runs the roofline model for a workload at the given precision
// and batch size.
func (d *Device) Evaluate(w Workload, precision tensor.DType, batch int) (Measurement, error) {
	peak, ok := d.PeakGOPS[precision]
	if !ok {
		return Measurement{}, fmt.Errorf("accel: %s does not support %s", d.Name, precision)
	}
	if batch <= 0 {
		return Measurement{}, fmt.Errorf("accel: batch %d", batch)
	}

	util := d.utilization(batch)
	effGOPS := peak * util

	ops := float64(w.OpsPerInference) * float64(batch)
	computeMS := ops / (effGOPS * 1e9) * 1e3

	// Weights stream once per batch (they stay resident across the
	// batch's reuse window); activations stream per inference.
	bytes := float64(w.WeightBytes) + float64(w.ActivationBytes)*float64(batch)
	memMS := bytes / (d.MemBWGBs * 1e9) * 1e3

	latency := computeMS
	bound := "compute"
	if memMS > computeMS {
		latency = memMS
		bound = "memory"
	}
	latency += d.OverheadMS

	gops := ops / (latency * 1e6) // ops / (ms * 1e6) = GOPS

	// Effective utilization for the power model follows achieved/peak.
	uPower := gops / peak
	if uPower > 1 {
		uPower = 1
	}
	power := d.IdleW + uPower*(d.MaxW-d.IdleW)

	return Measurement{
		Device:    d.Name,
		Class:     d.Class,
		Workload:  w.Name,
		Precision: precision,
		Batch:     batch,
		LatencyMS: latency,
		GOPS:      gops,
		PowerW:    power,
		Bound:     bound,
	}, nil
}

// utilization models the batch-dependent fraction of peak a device
// sustains: u(b) = MaxUtil * b / (b + SatBatch).
func (d *Device) utilization(batch int) float64 {
	b := float64(batch)
	sat := d.SatBatch
	if sat <= 0 {
		sat = 0.5
	}
	u := d.MaxUtil * b / (b + sat)
	if u <= 0 {
		u = 0.01
	}
	return u
}

// PeakOnly is the naive performance model that ignores memory and
// utilization: latency = ops/peak. The ablation bench contrasts it with
// the roofline to show why Fig. 4's measured GOPS sit far below Fig. 3's
// peaks.
func (d *Device) PeakOnly(w Workload, precision tensor.DType, batch int) (Measurement, error) {
	peak, ok := d.PeakGOPS[precision]
	if !ok {
		return Measurement{}, fmt.Errorf("accel: %s does not support %s", d.Name, precision)
	}
	ops := float64(w.OpsPerInference) * float64(batch)
	latency := ops / (peak * 1e9) * 1e3
	return Measurement{
		Device:    d.Name,
		Class:     d.Class,
		Workload:  w.Name,
		Precision: precision,
		Batch:     batch,
		LatencyMS: latency,
		GOPS:      peak,
		PowerW:    d.MaxW,
		Bound:     "compute",
	}, nil
}

// SparsityAwareEvaluate evaluates a pruned workload. Structured sparsity
// (whole channels) reduces effective ops on any device; unstructured
// sparsity only helps devices with zero-skipping hardware (none in the
// Fig. 4 set), reproducing the §III observation that theoretical
// speed-ups do not translate to hardware.
func (d *Device) SparsityAwareEvaluate(w Workload, precision tensor.DType, batch int,
	structuredSparsity, unstructuredSparsity float64, zeroSkipping bool) (Measurement, error) {

	effOps := float64(w.OpsPerInference) * (1 - structuredSparsity)
	if zeroSkipping {
		effOps *= 1 - unstructuredSparsity
	}
	w2 := w
	w2.OpsPerInference = int64(effOps)
	// Structured pruning also shrinks the weights actually fetched;
	// unstructured sparse formats still fetch indices, modeled as no
	// traffic reduction.
	w2.WeightBytes = int64(float64(w.WeightBytes) * (1 - structuredSparsity))
	return d.Evaluate(w2, precision, batch)
}
