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

// ServeStudy drives the network front door over real sockets: a
// framed-TCP server over a two-replica uRECS fleet takes a closed-loop
// load run (thousands of client goroutines over a connection pool) with
// the socket-boundary adaptive batcher on and with batch-1 passthrough,
// plus a bitwise parity probe against the in-process reference engine.
// Every figure it reports is what that run measured; the perf gate pins
// the adaptive side's coalescing (serve_socket_coalescing).
func ServeStudy() (*Report, error) {
	r := newReport("Platform — network front door: adaptive batching at the socket boundary")

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
		if _, err := chassis.Mount("SMARC ARM", "SMARC ARM"); err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		sched, _, err := deployPacked(chassis, cluster.Config{QueueDepth: 512}, g)
		if err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		defer sched.Close()
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
