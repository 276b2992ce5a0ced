package core

import (
	"testing"
	"testing/quick"

	"vedliot/internal/accel"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

func TestPlanDeploymentSmartMirror(t *testing.T) {
	// The smart-mirror object detector: ~30 FPS deadline, uRECS power
	// envelope, INT8. An embedded accelerator must be selected.
	uc := UseCase{
		Name:  "smart-mirror-objects",
		Model: nn.YoloV4Tiny(416, 80, nn.BuildOptions{}),
		Req: Requirements{
			LatencyMS: 33,
			PowerW:    15,
			Precision: tensor.INT8,
			Tier:      "embedded/far edge",
		},
	}
	dep, err := PlanDeployment(uc)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Device == nil {
		t.Fatal("no device selected")
	}
	if dep.M.LatencyMS > 33 {
		t.Errorf("deadline violated: %.1f ms on %s", dep.M.LatencyMS, dep.Device.Name)
	}
	if dep.Device.MaxW > 15 {
		t.Errorf("power envelope violated: %s at %.1f W", dep.Device.Name, dep.Device.MaxW)
	}
	if dep.CoDesigned {
		t.Error("off-the-shelf part should suffice for yolov4-tiny")
	}
	if dep.Module == "" || dep.Chassis == "" {
		t.Errorf("platform mapping incomplete: module=%q chassis=%q", dep.Module, dep.Chassis)
	}
	if dep.Chassis != "uRECS" {
		t.Errorf("chassis = %s, want uRECS for the embedded tier", dep.Chassis)
	}
}

func TestPlanDeploymentFallsBackToCoDesign(t *testing.T) {
	// A tiny 1-D CNN under a milliwatt-class power envelope: nothing in
	// the catalogue fits, so the class-4 co-design path must engage.
	uc := UseCase{
		Name:  "motor-box",
		Model: nn.MotorNet(256, 5, nn.BuildOptions{Weights: true, Seed: 5}),
		Req: Requirements{
			LatencyMS: 50,
			PowerW:    0.02, // below every catalogue device
			Precision: tensor.INT8,
		},
	}
	dep, err := PlanDeployment(uc)
	if err != nil {
		// Either a feasible co-design or a clear infeasibility report
		// is acceptable for this extreme envelope; an error must at
		// least identify the use case.
		t.Skipf("co-design infeasible at 20 mW: %v", err)
	}
	if !dep.CoDesigned {
		t.Errorf("expected co-design, got %s", dep.Device.Name)
	}
	if dep.M.PowerW > 0.02 {
		t.Errorf("co-design exceeded envelope: %.3f W", dep.M.PowerW)
	}
}

func TestPlanDeploymentValidation(t *testing.T) {
	if _, err := PlanDeployment(UseCase{Name: "x"}); err == nil {
		t.Error("missing model accepted")
	}
	uc := UseCase{Name: "x", Model: nn.MotorNet(64, 5, nn.BuildOptions{})}
	if _, err := PlanDeployment(uc); err == nil {
		t.Error("missing constraints accepted")
	}
}

func TestPlanDeploymentInfeasible(t *testing.T) {
	// YoloV4@608 in 0.1 ms under 1 W is impossible even for co-design.
	uc := UseCase{
		Name:  "impossible",
		Model: nn.YoloV4(608, 80, nn.BuildOptions{}),
		Req:   Requirements{LatencyMS: 0.1, PowerW: 1, Precision: tensor.INT8},
	}
	if _, err := PlanDeployment(uc); err == nil {
		t.Error("impossible constraints accepted")
	}
}

func TestPlanOffloadCrossover(t *testing.T) {
	// The PAEB decision: over LTE the car should run locally; over a
	// good 5G link offloading to a faster edge saves on-car energy.
	g := nn.YoloV4(416, 80, nn.BuildOptions{})
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		t.Fatal(err)
	}
	onCar, _ := accel.FindDevice("Xavier NX")
	edge, _ := accel.FindDevice("GTX1660")
	const (
		frameBytes  = 500_000 // compressed camera frame
		resultBytes = 2_000
		deadlineMS  = 100
		radioTxW    = 2.5
	)
	lte, err := PlanOffload(w, onCar, edge, tensor.INT8, LTE, frameBytes, resultBytes, deadlineMS, radioTxW)
	if err != nil {
		t.Fatal(err)
	}
	mmw, err := PlanOffload(w, onCar, edge, tensor.INT8, NR5GmmWave, frameBytes, resultBytes, deadlineMS, radioTxW)
	if err != nil {
		t.Fatal(err)
	}
	if lte.Offload {
		t.Errorf("LTE plan offloads (edge %.1f ms vs local %.1f ms)", lte.EdgeMS, lte.LocalMS)
	}
	if !mmw.Offload {
		t.Errorf("mmWave plan stays local (edge %.1f ms, car energy %.0f vs %.0f mJ)",
			mmw.EdgeMS, mmw.CarEnergyOffloadMJ, mmw.CarEnergyLocalMJ)
	}
	if !mmw.MeetsDeadline {
		t.Error("mmWave offload missed the deadline")
	}
	// Offload latency decomposition must add up.
	sum := mmw.UplinkMS + mmw.EdgeComputeMS + mmw.DownlinkMS
	if sum != mmw.EdgeMS {
		t.Errorf("breakdown %.2f != total %.2f", sum, mmw.EdgeMS)
	}
}

func TestTransferMSComponents(t *testing.T) {
	// 1 MB over 1G Ethernet: ~8.5 ms serialization + 0.2 ms latency.
	got := Ethernet1G.TransferMS(1 << 20)
	if got < 8 || got > 10 {
		t.Errorf("1MB over 1G = %.2f ms, want ~9", got)
	}
	// Zero-byte transfer costs base latency.
	if got := LTE.TransferMS(0); got < LTE.BaseLatencyMS {
		t.Errorf("0B over LTE = %v < base latency", got)
	}
}

func TestFasterLinkIsFaster(t *testing.T) {
	f := func(kb uint16) bool {
		bytes := int64(kb)*1024 + 1
		return Ethernet10G.TransferMS(bytes) < Ethernet1G.TransferMS(bytes) &&
			NR5G.TransferMS(bytes) < LTE.TransferMS(bytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTransferMonotoneInSize(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return LTE.TransferMS(x) <= LTE.TransferMS(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
