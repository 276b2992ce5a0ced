package main

import "time"

// gemmShape is an m x n x k GEMM: m output channels, n output pixels
// (or batch rows), k reduction taps.
type gemmShape struct{ m, n, k int }

// workload is one served traffic mix. README.md gives the rationale for
// each.
type workload struct {
	name string
	why  string
	// model is the zoo entry; module the compute module mounted in both
	// uRECS slots; int8 embeds a calibration schema so accel.Backend
	// serves on QuantEngine.
	model, module string
	int8          bool
	// rate is the open-loop arrival rate in req/s.
	rate float64
	// limit is the latency limit a reply must meet.
	limit time.Duration
	// gemm is the model's largest GEMM, probed on its own in the traced
	// run.
	gemm gemmShape
}

// openLoopCap bounds the requests an open-loop workload may have in
// flight; it is reached only if the server stops answering.
// capacityInflight is how many requests the traced run's closed-loop
// capacity probe keeps outstanding, 128 per connection: the scheduler's
// queue depth. It keeps both cores busy on every workload; four times as
// many stack mobilenetedge into batches of 256 rows that fall out of the
// caches, and the fleet then serves a seventh as much.
const (
	openLoopCap      = 1024
	capacityInflight = 256
)

var (
	// mlpGemm is the first dense layer (784 -> 300) at the front door's
	// 32-row batch cap.
	mlpGemm = gemmShape{m: 300, n: frontMaxBatch, k: 784}
	// cnnGemm is mobilenetedge's pointwise conv with the most FLOPs: the
	// 16 -> 64 expansion over the 32x32 feature map.
	cnnGemm = gemmShape{m: 64, n: 32 * 32, k: 16}
)

var workloads = []workload{
	{
		name:  "mlp_trickle",
		why:   "open loop, 200 req/s on the mlp: the engine is ~4% of latency, so the batching windows and hand-offs of serve, cluster and microserver set it",
		model: "mlp", module: "SMARC ARM", rate: 200, limit: 50 * time.Millisecond, gemm: mlpGemm,
	},
	{
		name:  "mlp_flood",
		why:   "open loop, 5000 req/s on the mlp: the front door coalesces by count, a third to a half of the CPU goes to framing, stacking and batched GEMM, and a costlier request shows as queueing",
		model: "mlp", module: "SMARC ARM", rate: 5000, limit: 100 * time.Millisecond, gemm: mlpGemm,
	},
	{
		name:  "cnn_steady",
		why:   "open loop, 75 req/s on mobilenetedge FP32: the engine and kernels do most of the work and coalescing buys nothing, so engine, kernel and routing changes show here",
		model: "mobilenetedge", module: "SMARC ARM", rate: 75, limit: 100 * time.Millisecond, gemm: cnnGemm,
	},
	{
		name:  "cnn_int8_steady",
		why:   "cnn_steady's schedule on 2x Coral SoM with an embedded calibration schema: the same layers through the INT8 executor, so a gain for one executor that costs the other shows",
		model: "mobilenetedge", module: "Coral SoM", int8: true, rate: 75, limit: 100 * time.Millisecond, gemm: cnnGemm,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}
