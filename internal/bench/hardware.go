package bench

import (
	"fmt"
	"math"
	"sort"

	"vedliot/internal/accel"
	"vedliot/internal/core"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Fig2 regenerates the COM form-factor comparison.
func Fig2() (*Report, error) {
	r := newReport("Fig. 2 — Computer-On-Module form factors (1=low, 5=high)")
	r.linef("%-20s %6s %6s %6s %6s %6s", "form factor", "size", "I/O", "perf", "archs", "share")
	profiles := microserver.Profiles()
	for _, p := range profiles {
		r.linef("%-20s %6d %6d %6d %6d %6d",
			p.FormFactor, p.Size, p.IOFlexibility, p.Performance, p.Architectures, p.MarketShare)
	}
	get := func(f microserver.FormFactor) microserver.FormFactorProfile {
		p, _ := microserver.ProfileFor(f)
		return p
	}
	r.check("COM-HPC Server is largest and most performant",
		get(microserver.COMHPCServer).Size == 1 && get(microserver.COMHPCServer).Performance == 5)
	r.check("RPi CM4 is smallest with lowest performance",
		get(microserver.RPiCM4).Size == 5 && get(microserver.RPiCM4).Performance == 1)
	r.check("SMARC supports the most architectures", func() bool {
		best := get(microserver.SMARC).Architectures
		for _, p := range profiles {
			if p.Architectures > best {
				return false
			}
		}
		return true
	}())
	return r, nil
}

// Fig3 regenerates the accelerator survey scatter.
func Fig3() (*Report, error) {
	r := newReport("Fig. 3 — Peak performance of DL accelerators (survey)")
	entries := accel.Survey()
	sort.Slice(entries, func(i, j int) bool { return entries[i].PowerW < entries[j].PowerW })
	r.linef("%-16s %12s %10s %10s %-7s", "name", "GOPS", "power W", "TOPS/W", "series")
	for _, e := range entries {
		series := "device"
		if e.IPCore {
			series = "IP core"
		}
		r.linef("%-16s %12.1f %10.3f %10.2f %-7s", e.Name, e.GOPS, e.PowerW, e.TOPSW(), series)
	}
	minW, maxW := math.Inf(1), 0.0
	for _, e := range entries {
		if e.PowerW < minW {
			minW = e.PowerW
		}
		if e.PowerW > maxW {
			maxW = e.PowerW
		}
	}
	r.linef("power range: %.3f W .. %.0f W (%.1f decades)", minW, maxW, math.Log10(maxW/minW))
	r.check("survey spans >= 5 decades of power", maxW/minW >= 1e5)
	r.check("survey holds 30+ parts", len(entries) >= 30)
	return r, nil
}

// TOPSW quantifies the ~1 TOPS/W efficiency cluster.
func TOPSW() (*Report, error) {
	r := newReport("§II-C — efficiency clustering around 1 TOPS/W")
	entries := accel.Survey()
	var logs []float64
	for _, e := range entries {
		logs = append(logs, math.Log10(e.TOPSW()))
	}
	sort.Float64s(logs)
	var sum float64
	for _, l := range logs {
		sum += l
	}
	geo := math.Pow(10, sum/float64(len(logs)))
	med := math.Pow(10, logs[len(logs)/2])
	within3x := 0
	for _, l := range logs {
		if l >= math.Log10(1.0/3) && l <= math.Log10(3) {
			within3x++
		}
	}
	frac := float64(within3x) / float64(len(logs))
	r.linef("parts: %d", len(logs))
	r.linef("geometric-mean efficiency: %.2f TOPS/W", geo)
	r.linef("median efficiency:         %.2f TOPS/W", med)
	r.linef("within 3x of 1 TOPS/W:     %.0f%%", frac*100)
	r.check("geometric mean within 3x of 1 TOPS/W", geo > 1.0/3 && geo < 3)
	r.check("majority of parts within 3x of 1 TOPS/W", frac >= 0.5)
	return r, nil
}

// fig4Sweep evaluates one model over the paper's platform x precision x
// batch grid, appending rows and returning the measurements.
func fig4Sweep(r *Report, g *nn.Graph, batches []int) ([]accel.Measurement, error) {
	var all []accel.Measurement
	r.linef("%-18s %-5s %3s %12s %9s %8s %9s", "platform", "prec", "B", "GOPS", "power W", "ms", "bound")
	for _, dev := range accel.EvaluationPlatforms() {
		for _, prec := range []tensor.DType{tensor.INT8, tensor.FP16, tensor.FP32} {
			if !dev.Supports(prec) {
				continue
			}
			w, err := accel.WorkloadFromGraph(g, prec)
			if err != nil {
				return nil, err
			}
			for _, b := range batches {
				m, err := dev.Evaluate(w, prec, b)
				if err != nil {
					return nil, err
				}
				all = append(all, m)
				r.linef("%-18s %-5s %3d %12.0f %9.1f %8.1f %9s",
					dev.Name, prec, b, m.GOPS, m.PowerW, m.LatencyMS, m.Bound)
			}
		}
	}
	return all, nil
}

func fig4Checks(r *Report, all []accel.Measurement) {
	// INT8 > FP16 > FP32 per device/batch.
	precOrder := true
	byKey := map[string]map[tensor.DType]float64{}
	for _, m := range all {
		key := fmt.Sprintf("%s/%d", m.Device, m.Batch)
		if byKey[key] == nil {
			byKey[key] = map[tensor.DType]float64{}
		}
		byKey[key][m.Precision] = m.GOPS
	}
	for _, g := range byKey {
		if i8, ok := g[tensor.INT8]; ok {
			if f16, ok2 := g[tensor.FP16]; ok2 && i8 <= f16 {
				precOrder = false
			}
		}
		// FP16 >= FP32: CPUs without native half support run FP16 at
		// FP32 rate, so equality is legitimate there.
		if f16, ok := g[tensor.FP16]; ok {
			if f32, ok2 := g[tensor.FP32]; ok2 && f16 < f32 {
				precOrder = false
			}
		}
	}
	r.check("INT8 > FP16 >= FP32 throughput per device", precOrder)

	// Batch 8 >= batch 1 per device/precision.
	batchHelps := true
	byDP := map[string]map[int]float64{}
	for _, m := range all {
		key := fmt.Sprintf("%s/%s", m.Device, m.Precision)
		if byDP[key] == nil {
			byDP[key] = map[int]float64{}
		}
		byDP[key][m.Batch] = m.GOPS
	}
	for _, g := range byDP {
		if b1, ok := g[1]; ok {
			if b8, ok2 := g[8]; ok2 && b8 < b1 {
				batchHelps = false
			}
		}
	}
	r.check("batching never hurts throughput", batchHelps)

	// Embedded parts beat desktop GPUs on efficiency; GPUs on raw GOPS.
	var bestEffEmbedded, bestEffGPU, bestGopsEmbedded, bestGopsGPU float64
	for _, m := range all {
		switch m.Class {
		case accel.ClassGPU:
			if m.TOPSW() > bestEffGPU {
				bestEffGPU = m.TOPSW()
			}
			if m.GOPS > bestGopsGPU {
				bestGopsGPU = m.GOPS
			}
		case accel.ClassEmbeddedGPU, accel.ClassASIC, accel.ClassFPGA:
			if m.TOPSW() > bestEffEmbedded {
				bestEffEmbedded = m.TOPSW()
			}
			if m.GOPS > bestGopsEmbedded {
				bestGopsEmbedded = m.GOPS
			}
		}
	}
	r.check("GPU wins raw throughput", bestGopsGPU > bestGopsEmbedded)
	r.check("embedded parts win efficiency", bestEffEmbedded > bestEffGPU)
}

// Fig4YoloV4 regenerates the paper's headline YoloV4 sweep.
func Fig4YoloV4() (*Report, error) {
	r := newReport("Fig. 4 — YoloV4@608 measured performance vs power")
	g := nn.YoloV4(608, 80, nn.BuildOptions{})
	all, err := fig4Sweep(r, g, []int{1, 8})
	if err != nil {
		return nil, err
	}
	fig4Checks(r, all)
	return r, nil
}

// Fig4Companions sweeps ResNet50 and MobileNetV3 (§II-C names all three
// models).
func Fig4Companions() (*Report, error) {
	r := newReport("§II-C — ResNet50@224 and MobileNetV3@224 sweeps")
	r.linef("--- ResNet50 ---")
	resnet, err := fig4Sweep(r, nn.ResNet50(224, nn.BuildOptions{}), []int{1, 8})
	if err != nil {
		return nil, err
	}
	r.linef("--- MobileNetV3-Large ---")
	mobile, err := fig4Sweep(r, nn.MobileNetV3(224, nn.BuildOptions{}), []int{1, 8})
	if err != nil {
		return nil, err
	}
	fig4Checks(r, append(resnet, mobile...))
	// MobileNet is lighter: latency on a common device must be lower.
	var resLat, mobLat float64
	for _, m := range resnet {
		if m.Device == "Xavier NX" && m.Precision == tensor.INT8 && m.Batch == 1 {
			resLat = m.LatencyMS
		}
	}
	for _, m := range mobile {
		if m.Device == "Xavier NX" && m.Precision == tensor.INT8 && m.Batch == 1 {
			mobLat = m.LatencyMS
		}
	}
	r.linef("Xavier NX INT8 B1: ResNet50 %.1f ms vs MobileNetV3 %.1f ms", resLat, mobLat)
	r.check("MobileNetV3 faster than ResNet50", mobLat < resLat)
	return r, nil
}

// URECS sweeps module mixes against the uRECS power envelope.
func URECS() (*Report, error) {
	r := newReport("§II-A — uRECS power envelope (< 15 W)")
	mixes := [][]string{
		{"SMARC ARM"},
		{"Jetson Xavier NX"},
		{"Jetson Xavier NX", "SMARC ARM"},
		{"Jetson Xavier NX", "Xilinx Kria K26"},
		{"SMARC FPGA-SoC", "SMARC ARM"},
		{"Jetson Xavier NX", "Jetson Xavier NX"}, // must be rejected
	}
	allWithinBudget := true
	rejectedOverBudget := false
	r.linef("%-45s %10s %10s %s", "module mix", "idle W", "max W", "fits")
	for _, mix := range mixes {
		chassis := microserver.NewURECS()
		_, err := chassis.Mount(mix...)
		fits := err == nil
		label := fmt.Sprintf("%v", mix)
		if fits {
			idle := chassis.PowerW(nil)
			maxW := chassis.MaxPowerW()
			r.linef("%-45s %10.1f %10.1f %v", label, idle, maxW, fits)
			if maxW > 15+chassis.BaseboardW {
				allWithinBudget = false
			}
		} else {
			r.linef("%-45s %10s %10s rejected", label, "-", "-")
			rejectedOverBudget = true
		}
	}
	r.check("all accepted mixes stay within the envelope", allWithinBudget)
	r.check("over-budget mix rejected", rejectedOverBudget)
	return r, nil
}

// Reconfiguration exercises the run-time adaptation story: FPGA partial
// reconfiguration between power/performance footprints plus fabric
// re-parameterization.
func Reconfiguration() (*Report, error) {
	r := newReport("§II-A — run-time reconfiguration")
	profiles := []accel.ArrayConfig{
		{Rows: 16, Cols: 16, ClockGHz: 0.2, OnChipKiB: 256},
		{Rows: 64, Cols: 64, ClockGHz: 0.5, OnChipKiB: 1024},
	}
	ra, err := accel.NewReconfigurable(profiles, 60)
	if err != nil {
		return nil, err
	}
	g := nn.MobileNetV3(224, nn.BuildOptions{})
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		return nil, err
	}
	r.linef("%-12s %10s %10s %8s", "deadline", "profile", "ms", "power W")
	var lowPowerChosenForLoose, highPerfChosenForTight bool
	for _, deadline := range []float64{500, 60, 5} {
		idx := ra.BestProfileFor(w, tensor.INT8, deadline)
		delay, err := ra.Switch(idx)
		if err != nil {
			return nil, err
		}
		m, err := ra.Active().Evaluate(w, tensor.INT8, 1)
		if err != nil {
			return nil, err
		}
		r.linef("%-12.0f %10d %10.1f %8.2f (reconfig %.0f ms)", deadline, idx, m.LatencyMS, m.PowerW, delay)
		if deadline == 500 && idx == 0 {
			lowPowerChosenForLoose = true
		}
		if deadline == 5 && idx == 1 {
			highPerfChosenForTight = true
		}
	}
	r.check("loose deadline selects the low-power profile", lowPowerChosenForLoose)
	r.check("tight deadline selects the high-performance profile", highPerfChosenForTight)

	// Fabric re-parameterization: the link between two nodes moves from
	// 1G to 10G Ethernet.
	before := core.Ethernet1G.TransferMS(8 << 20)
	after := core.Ethernet10G.TransferMS(8 << 20)
	r.linef("fabric 8 MiB transfer: 1G %.1f ms -> 10G %.1f ms", before, after)
	r.check("fabric reconfiguration reduces transfer time", after < before)
	return r, nil
}

// AblationRoofline contrasts the roofline device model with naive
// peak-only accounting, explaining why Fig. 4's measured GOPS sit far
// below Fig. 3's peaks.
func AblationRoofline() (*Report, error) {
	r := newReport("Ablation — roofline vs peak-only performance model")
	g := nn.YoloV4(608, 80, nn.BuildOptions{})
	r.linef("%-18s %12s %12s %8s", "platform", "peak GOPS", "roofline", "ratio")
	allBelow := true
	for _, dev := range accel.EvaluationPlatforms() {
		prec := dev.BestPrecision()
		w, err := accel.WorkloadFromGraph(g, prec)
		if err != nil {
			return nil, err
		}
		peak, err := dev.PeakOnly(w, prec, 1)
		if err != nil {
			return nil, err
		}
		roof, err := dev.Evaluate(w, prec, 1)
		if err != nil {
			return nil, err
		}
		if roof.GOPS > peak.GOPS {
			allBelow = false
		}
		r.linef("%-18s %12.0f %12.0f %8.2f", dev.Name, peak.GOPS, roof.GOPS, roof.GOPS/peak.GOPS)
	}
	r.check("roofline always at or below peak", allBelow)
	return r, nil
}
