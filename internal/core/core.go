// Package core implements the VEDLIoT design flow — the paper's primary
// contribution as an executable artifact (Fig. 1): given a use case's
// deep-learning model and its latency/power/tier requirements, the flow
// optimizes the model with the toolchain (§III), evaluates candidate
// accelerators with the performance models (§II-C), selects microserver
// modules and a RECS chassis (§II-A), and — for the automotive use case
// — plans on-car versus edge offloading over modeled networks (§V-A).
// Links are modeled by their expected transfer time (LinkProfile).
package core

import (
	"fmt"
	"math"

	"vedliot/internal/accel"
	"vedliot/internal/kenning"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// Requirements bound a use-case deployment.
type Requirements struct {
	// LatencyMS is the per-inference deadline.
	LatencyMS float64
	// PowerW is the accelerator power envelope.
	PowerW float64
	// Tier restricts the chassis ("embedded/far edge", "near edge",
	// "cloud", "" = any).
	Tier string
	// Precision is the deployment precision.
	Precision tensor.DType
	// Quantize runs PTQ when the precision is INT8.
	Quantize bool
	// CalibrationSamples are inputs run through the optimized graph to
	// derive the activation QuantSchema (Deployment.Pipeline.Schema) —
	// the artifact the native INT8 runtime and .vedz deployment
	// packages consume. Empty skips calibration.
	CalibrationSamples []map[string]*tensor.Tensor
	// Prune applies magnitude pruning at this sparsity when > 0.
	Prune float64
}

// UseCase couples a model with its requirements.
type UseCase struct {
	Name  string
	Model *nn.Graph
	Req   Requirements
}

// Deployment is the design-flow outcome.
type Deployment struct {
	UseCase string
	// Device is the chosen accelerator model.
	Device *accel.Device
	// M is the predicted operating point.
	M accel.Measurement
	// Module and Chassis place the device in the RECS platform (empty
	// when the device maps to no catalogue module, e.g. co-designed
	// FPGA overlays).
	Module  string
	Chassis string
	// Pipeline reports the toolchain work.
	Pipeline kenning.PipelineReport
	// CoDesigned marks a class-4 accelerator synthesized because no
	// off-the-shelf part met the constraints.
	CoDesigned bool
}

// PlanDeployment runs the full design flow for a use case. The model is
// optimized in place.
func PlanDeployment(uc UseCase) (Deployment, error) {
	dep := Deployment{UseCase: uc.Name}
	if uc.Model == nil {
		return dep, fmt.Errorf("core: use case %q has no model", uc.Name)
	}
	req := uc.Req
	if req.LatencyMS <= 0 || req.PowerW <= 0 {
		return dep, fmt.Errorf("core: use case %q needs positive latency and power bounds", uc.Name)
	}

	// Toolchain (§III): graph surgery, optional pruning + quantization.
	pcfg := kenning.PipelineConfig{Prune: req.Prune, CalibrationSamples: req.CalibrationSamples}
	if req.Quantize && req.Precision == tensor.INT8 {
		pcfg.Quantize = true
		pcfg.Granularity = optimize.PerChannel
	}
	prep, err := kenning.RunPipeline(uc.Model, pcfg)
	if err != nil {
		return dep, err
	}
	dep.Pipeline = prep

	w, err := accel.WorkloadFromGraph(uc.Model, req.Precision)
	if err != nil {
		return dep, err
	}

	// Candidate accelerators (§II-C evaluation flow): minimize energy
	// per inference among devices meeting both constraints.
	var best *accel.Device
	var bestM accel.Measurement
	bestEnergy := math.Inf(1)
	for _, d := range candidateDevices() {
		if !d.Supports(req.Precision) || d.MaxW > req.PowerW {
			continue
		}
		m, err := d.Evaluate(w, req.Precision, 1)
		if err != nil {
			continue
		}
		if m.LatencyMS > req.LatencyMS {
			continue
		}
		if e := m.EnergyPerInferenceMJ(); e < bestEnergy {
			best, bestM, bestEnergy = d, m, e
		}
	}

	if best == nil {
		// No off-the-shelf part fits: fall back to the class-4
		// co-design search (§II-B).
		res, err := accel.CoDesign(w, accel.CoDesignConstraints{
			LatencyMS: req.LatencyMS,
			PowerW:    req.PowerW,
			Precision: req.Precision,
		})
		if err != nil {
			return dep, err
		}
		if !res.Feasible {
			return dep, fmt.Errorf("core: use case %q infeasible: no device or co-design meets %.1f ms / %.1f W",
				uc.Name, req.LatencyMS, req.PowerW)
		}
		dep.Device = res.Dev
		dep.M = res.M
		dep.CoDesigned = true
		return dep, nil
	}
	dep.Device = best
	dep.M = bestM

	// Platform mapping (§II-A): find a module carrying the device and
	// a chassis accepting the module in the requested tier.
	if mod := moduleFor(best.Name); mod != nil {
		dep.Module = mod.Name
		if ch := chassisFor(mod, req.Tier); ch != nil {
			dep.Chassis = ch.Name
		}
	}
	return dep, nil
}

func candidateDevices() []*accel.Device {
	devs := accel.EvaluationPlatforms()
	seen := make(map[string]bool, len(devs))
	for _, d := range devs {
		seen[d.Name] = true
	}
	for _, d := range accel.EmbeddedTargets() {
		if !seen[d.Name] {
			devs = append(devs, d)
			seen[d.Name] = true
		}
	}
	return devs
}

func moduleFor(deviceName string) *microserver.Module {
	for _, m := range microserver.StandardModules() {
		if m.Accelerator == deviceName {
			return m
		}
	}
	return nil
}

func chassisFor(m *microserver.Module, tier string) *microserver.Chassis {
	candidates := []*microserver.Chassis{
		microserver.NewURECS(),
		microserver.NewTRECS(3),
		microserver.NewRECSBox(4),
	}
	for _, c := range candidates {
		if tier != "" && c.Tier != tier {
			continue
		}
		for slot := range c.Slots {
			if err := c.Insert(slot, m); err == nil {
				return c
			}
		}
	}
	return nil
}

// LinkProfile describes one link technology: the wired RECS fabric or
// a mobile network of the automotive use case.
type LinkProfile struct {
	Name string
	// BandwidthMbps is the usable payload rate.
	BandwidthMbps float64
	// BaseLatencyMS is the one-way propagation plus protocol latency.
	BaseLatencyMS float64
	// LossRate is the packet-loss probability per transfer, causing
	// retransmission delay.
	LossRate float64
}

// Standard profiles: the wired RECS fabric speeds and the mobile-network
// conditions the PAEB study sweeps.
var (
	Ethernet1G  = LinkProfile{Name: "1G Ethernet", BandwidthMbps: 940, BaseLatencyMS: 0.2}
	Ethernet10G = LinkProfile{Name: "10G Ethernet", BandwidthMbps: 9400, BaseLatencyMS: 0.05}
	LTE         = LinkProfile{Name: "LTE", BandwidthMbps: 50, BaseLatencyMS: 40, LossRate: 0.02}
	NR5G        = LinkProfile{Name: "5G NR", BandwidthMbps: 500, BaseLatencyMS: 10, LossRate: 0.005}
	NR5GmmWave  = LinkProfile{Name: "5G mmWave", BandwidthMbps: 2000, BaseLatencyMS: 5, LossRate: 0.01}
)

// MobileProfiles returns the cellular conditions swept by the PAEB
// offloading study, ordered from worst to best.
func MobileProfiles() []LinkProfile {
	return []LinkProfile{LTE, NR5G, NR5GmmWave}
}

// TransferMS returns the deterministic expected transfer time for a
// payload: serialization + base latency + expected retransmission
// overhead.
func (p LinkProfile) TransferMS(bytes int64) float64 {
	ser := float64(bytes) * 8 / (p.BandwidthMbps * 1e6) * 1e3
	// Expected retransmissions: geometric series; each retransmission
	// costs one RTT (2x base latency).
	retrans := p.LossRate / (1 - p.LossRate) * 2 * p.BaseLatencyMS
	return ser + p.BaseLatencyMS + retrans
}

// OffloadPlan is the PAEB distribution decision (§V-A): run the
// detector on-car or ship the frame to an edge station, trading network
// transfer against compute speed and on-car energy.
type OffloadPlan struct {
	// Offload reports whether the edge path wins.
	Offload bool
	// LocalMS and EdgeMS are the end-to-end latencies of both options.
	LocalMS, EdgeMS float64
	// EdgeBreakdown separates the offload latency.
	UplinkMS, EdgeComputeMS, DownlinkMS float64
	// CarEnergyLocalMJ and CarEnergyOffloadMJ compare on-car energy.
	CarEnergyLocalMJ, CarEnergyOffloadMJ float64
	// MeetsDeadline reports whether the chosen option meets it.
	MeetsDeadline bool
}

// PlanOffload evaluates both execution paths for one camera frame.
// radioTxW is the car radio's transmit power; resultBytes the detection
// payload returned by the edge.
func PlanOffload(w accel.Workload, onCar, edge *accel.Device, precision tensor.DType,
	link LinkProfile, frameBytes, resultBytes int64, deadlineMS, radioTxW float64) (OffloadPlan, error) {

	var plan OffloadPlan
	local, err := onCar.Evaluate(w, precision, 1)
	if err != nil {
		return plan, err
	}
	edgeM, err := edge.Evaluate(w, precision, 1)
	if err != nil {
		return plan, err
	}
	plan.LocalMS = local.LatencyMS
	plan.UplinkMS = link.TransferMS(frameBytes)
	plan.EdgeComputeMS = edgeM.LatencyMS
	plan.DownlinkMS = link.TransferMS(resultBytes)
	plan.EdgeMS = plan.UplinkMS + plan.EdgeComputeMS + plan.DownlinkMS

	plan.CarEnergyLocalMJ = local.EnergyPerInferenceMJ()
	// Offload energy on the car: radio transmit during uplink plus idle
	// accelerator during the wait.
	plan.CarEnergyOffloadMJ = radioTxW*plan.UplinkMS + onCar.IdleW*plan.EdgeMS

	// Decide: prefer the option that meets the deadline; among options
	// meeting it, minimize on-car energy (the paper's stated goal is
	// minimizing on-car energy consumption).
	localOK := plan.LocalMS <= deadlineMS
	edgeOK := plan.EdgeMS <= deadlineMS
	switch {
	case localOK && edgeOK:
		plan.Offload = plan.CarEnergyOffloadMJ < plan.CarEnergyLocalMJ
	case edgeOK:
		plan.Offload = true
	case localOK:
		plan.Offload = false
	default:
		// Neither meets the deadline: pick the faster one.
		plan.Offload = plan.EdgeMS < plan.LocalMS
	}
	if plan.Offload {
		plan.MeetsDeadline = edgeOK
	} else {
		plan.MeetsDeadline = localOK
	}
	return plan, nil
}
