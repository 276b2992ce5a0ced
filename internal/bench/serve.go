package bench

import (
	"context"
	"fmt"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/serve"
	"vedliot/internal/tensor"
)

// ServeStudy exercises the network front door at both of its scales:
//
//  1. Million-client closed loop — the discrete-event simulator drives
//     a self-throttling client population (exact virtual time, so the
//     result is machine-independent) against a 4-replica edge fleet,
//     comparing adaptive batching (rows coalesced per dispatch) with
//     batch-size-1 passthrough at the same offered load: throughput,
//     tail latency (p50/p99/p999), shed fraction and SLO-violation
//     rate.
//  2. Real sockets — a framed-TCP server over a uRECS fleet takes a
//     closed-loop load run (thousands of client goroutines over a
//     connection pool) with the socket-boundary adaptive batcher on
//     vs off, plus a bitwise parity probe against the in-process
//     reference engine.
//
// The simulated metrics (serve_p99_ms, serve_slo_violation_rate,
// serve_batch_coalescing) are deterministic and pinned by the perf
// gate; the socket run contributes ratio checks that survive machine
// differences.
func ServeStudy() (*Report, error) {
	r := newReport("Platform — network front door: adaptive batching at the socket boundary")

	// --- Part 1: closed-loop simulation at fleet scale ----------------
	// An edge replica: 1.5ms base service plus 150µs per extra row in a
	// batch, so coalescing amortizes the fixed per-dispatch cost. Four
	// replicas give 2.7k req/s unbatched and ~21k req/s at batch 32;
	// think time scales with the population so the offered load (~13k
	// req/s) sits between the two capacities at every fidelity.
	clients := pick(1_000_000, 50_000)
	fleet := make([]cluster.SimReplica, 4)
	for i := range fleet {
		fleet[i] = cluster.SimReplica{
			Name: fmt.Sprintf("edge%d", i), Service: 1500 * time.Microsecond,
			PerItem: 150 * time.Microsecond, IdleW: 5, MaxW: 25,
		}
	}
	base := cluster.ClosedLoopConfig{
		Clients:           clients,
		RequestsPerClient: 2,
		Think:             time.Duration(clients) * 77 * time.Microsecond,
		SLO:               50 * time.Millisecond,
		QueueCap:          512,
		Seed:              11,
	}
	batched, passthru := base, base
	batched.MaxBatch = 32
	passthru.MaxBatch = 1
	bres, err := cluster.SimulateClosedLoop(fleet, batched)
	if err != nil {
		return nil, err
	}
	pres, err := cluster.SimulateClosedLoop(fleet, passthru)
	if err != nil {
		return nil, err
	}
	simSpeedup := 0.0
	if pres.Throughput > 0 {
		simSpeedup = bres.Throughput / pres.Throughput
	}
	r.linef("closed-loop sim: %d clients x %d requests over %d replicas (queue %d, SLO %v)",
		clients, base.RequestsPerClient, len(fleet), base.QueueCap, base.SLO)
	r.linef("%-12s %12s %10s %10s %10s %10s %8s %10s", "policy", "throughput", "p50", "p99", "p999", "slo-rate", "shed", "rows/batch")
	for _, row := range []struct {
		name string
		res  cluster.ClosedLoopResult
	}{{"batch-1", pres}, {"adaptive-32", bres}} {
		r.linef("%-12s %9.0f/s %10v %10v %10v %9.4f %8d %10.1f", row.name, row.res.Throughput,
			row.res.Latency.P50.Round(time.Microsecond), row.res.Latency.P99.Round(time.Microsecond),
			row.res.Latency.P999.Round(time.Microsecond), row.res.SLOViolationRate, row.res.Shed, row.res.MeanBatch)
	}
	r.linef("sim throughput adaptive vs batch-1: %.2fx", simSpeedup)
	r.metric("serve_sim_clients", "", float64(clients))
	r.metric("serve_sim_throughput_rps", "req/s", bres.Throughput)
	r.metric("serve_sim_batch1_throughput_rps", "req/s", pres.Throughput)
	r.metric("serve_sim_speedup", "x", simSpeedup)
	r.metric("serve_p50_ms", "ms", float64(bres.Latency.P50)/1e6)
	r.metric("serve_p99_ms", "ms", float64(bres.Latency.P99)/1e6)
	r.metric("serve_p999_ms", "ms", float64(bres.Latency.P999)/1e6)
	r.metric("serve_slo_violation_rate", "", bres.SLOViolationRate)
	r.metric("serve_batch_coalescing", "rows/batch", bres.MeanBatch)
	r.check("sim: adaptive batching sustains >=2x batch-1 throughput", simSpeedup >= 2)
	r.check("sim: adaptive batching does not worsen the SLO-violation rate", bres.SLOViolationRate <= pres.SLOViolationRate)
	r.check("sim: dispatches coalesce >=4 rows per batch", bres.MeanBatch >= 4)
	r.check("sim: batch-1 passthrough sheds under the same load", pres.Shed > 0)

	// --- Part 2: real sockets over the uRECS fleet --------------------
	socketClients := pick(10000, 400)
	conns := pick(32, 8)
	// LeNet-300-100: dense layers whose batch-1 inference is
	// matrix-vector work while a coalesced batch runs as blocked GEMM,
	// so the engines only reach their throughput when the front door
	// hands them full batches — the workload the adaptive batcher is
	// for.
	g := nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1})
	ins, err := nn.SyntheticInput(g, 1, 5)
	if err != nil {
		return nil, err
	}
	eng, err := inference.Compile(g)
	if err != nil {
		return nil, err
	}
	want, err := eng.Run(ins)
	if err != nil {
		return nil, err
	}

	run := func(policy serve.BatchPolicy) (serve.LoadResult, serve.ServerStats, float64, error) {
		chassis := microserver.NewURECS()
		for slot := 0; slot < 2; slot++ {
			m, err := microserver.FindModule("SMARC ARM")
			if err != nil {
				return serve.LoadResult{}, serve.ServerStats{}, 0, err
			}
			if err := chassis.Insert(slot, m); err != nil {
				return serve.LoadResult{}, serve.ServerStats{}, 0, err
			}
		}
		sched := cluster.NewScheduler(chassis, cluster.Config{QueueDepth: 512})
		defer sched.Close()
		if _, err := sched.Deploy(g); err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		srv, err := serve.Listen("127.0.0.1:0", sched, serve.Config{Batch: policy})
		if err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		defer srv.Close()
		pool, err := serve.DialPool(srv.Addr(), "", conns)
		if err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		defer pool.Close()
		// Parity probe through the full framed path before the load.
		outs, err := pool.InferCtx(context.Background(), g.Name, ins)
		if err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		parity, _ := tensor.MaxAbsDiff(want[g.Outputs[0]], outs[g.Outputs[0]])
		res, err := serve.RunClosedLoop(pool, serve.LoadConfig{
			Model:             g.Name,
			Clients:           socketClients,
			RequestsPerClient: 2,
			Think:             25 * time.Millisecond,
			SLO:               time.Second,
			Retry:             true,
			Inputs:            func(int) map[string]*tensor.Tensor { return ins },
			Seed:              23,
		})
		return res, srv.Stats(), parity, err
	}

	pLoad, pStats, pParity, err := run(serve.BatchPolicy{MaxBatch: 1})
	if err != nil {
		return nil, err
	}
	bLoad, bStats, bParity, err := run(serve.BatchPolicy{MaxBatch: 64, MaxDelay: time.Millisecond})
	if err != nil {
		return nil, err
	}
	speedup := 0.0
	if pLoad.Throughput > 0 {
		speedup = bLoad.Throughput / pLoad.Throughput
	}
	shedFrac := 0.0
	if bLoad.Requests > 0 {
		shedFrac = float64(bLoad.Shed) / float64(bLoad.Requests)
	}
	r.linef("")
	r.linef("framed TCP: %d clients x 2 requests over %d pooled conns, 2x SMARC ARM fleet", socketClients, conns)
	r.linef("%-12s %12s %10s %10s %10s %8s %8s %10s", "policy", "throughput", "p50", "p99", "p999", "shed", "failed", "rows/batch")
	for _, row := range []struct {
		name  string
		load  serve.LoadResult
		stats serve.ServerStats
	}{{"batch-1", pLoad, pStats}, {"adaptive-64", bLoad, bStats}} {
		r.linef("%-12s %9.0f/s %10v %10v %10v %8d %8d %10.1f", row.name, row.load.Throughput,
			row.load.Latency.P50.Round(time.Microsecond), row.load.Latency.P99.Round(time.Microsecond),
			row.load.Latency.P999.Round(time.Microsecond), row.load.Shed, row.load.Failed, row.stats.MeanBatch)
	}
	r.linef("socket throughput adaptive vs batch-1: %.2fx", speedup)
	r.metric("serve_throughput_rps", "req/s", bLoad.Throughput)
	r.metric("serve_batch1_throughput_rps", "req/s", pLoad.Throughput)
	r.metric("serve_batch_speedup", "x", speedup)
	r.metric("serve_socket_p50_ms", "ms", float64(bLoad.Latency.P50)/1e6)
	r.metric("serve_socket_p99_ms", "ms", float64(bLoad.Latency.P99)/1e6)
	r.metric("serve_socket_p999_ms", "ms", float64(bLoad.Latency.P999)/1e6)
	r.metric("serve_socket_slo_violation_rate", "", bLoad.SLOViolationRate)
	r.metric("serve_socket_coalescing", "rows/batch", bStats.MeanBatch)
	r.metric("serve_shed_fraction", "", shedFrac)

	r.check("socket: bitwise parity with the reference engine", pParity == 0 && bParity == 0)
	r.check("socket: zero hard failures under load", pLoad.Failed == 0 && bLoad.Failed == 0)
	coalesceFloor := 4.0
	if Quick() {
		// 400 clients x 2 requests are all ramp: the passthrough side,
		// which crosses no timer either, finishes within 20% of the
		// batched one, so the ratio is a metric here and gated only at
		// full fidelity.
		coalesceFloor = 1.5
	} else {
		// What coalescing is for under saturation: more served and
		// nothing more shed. The ratio itself is a printed metric, not a
		// floor: it moves with the cost of the passthrough side's
		// single-row runs while the adaptive side's throughput stands.
		r.check("socket: adaptive batching serves >=1.2x batch-1 throughput and sheds no more",
			speedup >= 1.2 && bLoad.Shed <= pLoad.Shed)
	}
	r.check(fmt.Sprintf("socket: dispatches coalesce >=%.1f rows per batch", coalesceFloor), bStats.MeanBatch >= coalesceFloor)
	return r, nil
}
