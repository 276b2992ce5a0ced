package main

// metric describes one number the benchmark prints. BENCHMARK.json
// lists the same names, units and bounds; metrics_test.go keeps the two
// in step.
type metric struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	bound float64
	// moves names the end-to-end metric and workload a per-layer
	// metric is expected to move, written down before measuring.
	moves string
}

// endToEnd are the metrics a user of the served fleet sees. Each is
// the median over the six measured windows, except setup_s, the median
// of the cold set-ups.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p25_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.10},
	{name: "slo_ok_share", unit: "share", better: "higher", bound: 0.05},
}

// perLayer are the traced run's metrics, one module per prefix.
var perLayer = []metric{
	{name: "serve.self_p50_us", unit: "us", better: "lower", moves: "latency_p50_ms on mlp_trickle"},
	{name: "serve.rows_per_batch", unit: "rows", better: "higher", moves: "loadgen.cpu_ms_per_req, then latency_p25_ms on mlp_flood"},
	{name: "serve.overloaded", unit: "count", better: "lower", moves: "fail_share on mlp_flood"},
	{name: "serve.dial_us", unit: "us", better: "lower", moves: "setup_s"},
	{name: "cluster.self_p50_us", unit: "us", better: "lower", moves: "latency_p50_ms on mlp_trickle"},
	{name: "cluster.replica_share_max", unit: "share", better: "lower", moves: "latency_p90_ms on cnn_steady"},
	{name: "cluster.rejected", unit: "count", better: "lower", moves: "fail_share"},
	{name: "cluster.accounting_gap", unit: "count", better: "lower", moves: "correctness guard, must be 0"},
	{name: "cluster.deploy_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "microserver.self_p50_us", unit: "us", better: "lower", moves: "latency_p50_ms on mlp_trickle"},
	{name: "microserver.rows_per_batch", unit: "requests", better: "higher", moves: "loadgen.capacity_rps on mlp_flood"},
	{name: "microserver.modeled_joules_per_req", unit: "J", better: "lower", moves: "paper Fig. 4 axis; modeled, never gated"},
	{name: "inference.self_p50_us", unit: "us", better: "lower", moves: "latency_p50_ms on cnn_steady, cnn_int8_steady"},
	{name: "inference.run_b1_us", unit: "us", better: "lower", moves: "latency_p50_ms on cnn_steady, cnn_int8_steady"},
	{name: "inference.run_b8_us_per_row", unit: "us", better: "lower", moves: "loadgen.capacity_rps on mlp_flood"},
	{name: "inference.busy_share", unit: "share", better: "lower", moves: "latency_p90_ms on cnn_steady"},
	{name: "inference.allocs_per_run", unit: "count", better: "lower", moves: "loadgen.cpu_ms_per_req"},
	{name: "inference.compile_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "inference.plan_cache_hits", unit: "count", better: "higher", moves: "setup_s"},
	{name: "inference.parity_max_abs_diff", unit: "abs", better: "lower", moves: "correctness guard, must be 0"},
	{name: "inference.int8_top1_agreement", unit: "share", better: "higher", moves: "output-quality guard on cnn_int8_steady"},
	{name: "tensor.gemm_f32_gflops", unit: "GFLOP/s", better: "higher", moves: "inference.run_b1_us, then latency_p50_ms on cnn_steady"},
	{name: "tensor.gemm_i16_gops", unit: "Gop/s", better: "higher", moves: "latency_p50_ms on cnn_int8_steady"},
	{name: "tensor.gemm_bytes_per_flop", unit: "B/FLOP", better: "lower", moves: "context for the two above; computed from the shape"},
	{name: "artifact.verify_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "artifact.bytes", unit: "B", better: "lower", moves: "context"},
	{name: "release.verify_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "process.alloc_kb_per_req", unit: "KiB", better: "lower", moves: "loadgen.cpu_ms_per_req on mlp_flood"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower", moves: "latency_p90_ms"},
	{name: "process.goroutines_peak", unit: "count", better: "lower", moves: "loadgen.cpu_ms_per_req on mlp_flood"},
	{name: "process.goroutines_leaked", unit: "count", better: "lower", moves: "robustness guard, must be 0"},
	{name: "loadgen.sent", unit: "count", better: "higher", moves: "denominator"},
	{name: "loadgen.ok", unit: "count", better: "higher", moves: "denominator"},
	{name: "loadgen.failed", unit: "count", better: "lower", moves: "fail_share"},
	{name: "loadgen.shed", unit: "count", better: "lower", moves: "fail_share"},
	{name: "loadgen.wrong", unit: "count", better: "lower", moves: "fail_share"},
	{name: "loadgen.fail_share", unit: "share", better: "lower", moves: "reported only: 0 on a sound run, so it cannot carry a relative bound"},
	{name: "loadgen.slo_miss_share", unit: "share", better: "lower", moves: "reported only: gated as slo_ok_share"},
	{name: "loadgen.latency_p50_ms", unit: "ms", better: "lower", moves: "reported only: run-to-run spread up to 0.29 on this host"},
	{name: "loadgen.latency_p90_ms", unit: "ms", better: "lower", moves: "reported only: run-to-run spread up to 0.78 on this host"},
	{name: "loadgen.latency_p99_ms", unit: "ms", better: "lower", moves: "reported only: a handful of host stalls decide it"},
	{name: "loadgen.max_late_ms", unit: "ms", better: "lower", moves: "validity of the open-loop rows"},
	{name: "loadgen.late_share", unit: "share", better: "lower", moves: "validity of the open-loop rows"},
	{name: "loadgen.trace_overhead", unit: "ratio", better: "lower", moves: "validity of the ladder"},
	{name: "loadgen.cpu_ms_per_req", unit: "ms", better: "lower", moves: "reported only: CPU time for the same work follows the host's speed, spread up to 0.31 between runs"},
	{name: "loadgen.capacity_rps", unit: "req/s", better: "higher", moves: "reported only: a saturated fleet reads the host's speed, spread up to 0.34 between runs"},
}
