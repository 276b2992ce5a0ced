package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run replays the workload's schedule once per entry depth.
// Whatever lies above the entry is absent from that replay, so a
// layer's self time is the p50 at its depth minus the p50 one depth
// further in, and the four self times sum to the socket-depth p50.
// Until the program records spans itself this ladder, built only from
// public entry points, is how the benchmark splits a request's
// milliseconds by module.

// span is one timed interval. Spans of one request share Request; a
// request's root span has Parent 0. Times are offsets from the start of
// the traced run.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanBudget is about how many requests of one replay keep their spans.
// A schedule with more keeps those of every n-th request number, or
// mlp_flood's span file would hold a hundred thousand requests. Skipped
// spans are counted.
const spanBudget = 4096

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch  time.Time
	stride int   // requests whose number it divides are kept
	depth  int64 // index of the replay in progress, from 1

	mu      sync.Mutex
	spans   []span
	dropped int

	children atomic.Int64
	pending  sync.Map     // request tag -> request number
	busy     atomic.Int64 // ns inside the executable at this depth
}

func (t *tracer) enter() {
	t.depth++
	t.busy.Store(0)
}

func (t *tracer) rootID(k int) int64 { return t.depth<<40 | int64(k+1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Request%int64(t.stride) != 0 {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// prepare tags request k so the executable wrapper can find it again.
func (t *tracer) prepare(k int, ins tensors) tensors {
	tagged, tag := tagRequest(ins)
	t.pending.Store(tag, k)
	return tagged
}

// engineSpan is the wrapper's callback: one child span per request the
// engine call covered.
func (t *tracer) engineSpan(start, end time.Time, batch []tensors) {
	t.busy.Add(int64(end.Sub(start)))
	name := "inference.Run"
	if len(batch) > 1 {
		name = "inference.RunBatch"
	}
	for _, ins := range batch {
		k, ok := t.pending.LoadAndDelete(requestTag(ins))
		if !ok {
			continue
		}
		t.add(span{
			Name: name, ID: t.depth<<40 | 1<<39 | t.children.Add(1), Parent: t.rootID(k.(int)), Request: int64(k.(int)),
			StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
		})
	}
}

// roots records each request of a finished replay as a root span from
// its due time to its reply.
func (t *tracer) roots(name string, phaseStart time.Time, samples []sample) {
	off := phaseStart.Sub(t.epoch)
	for _, s := range samples {
		t.add(span{Name: name, ID: t.rootID(s.k), Request: int64(s.k), StartNS: int64(off + s.due), EndNS: int64(off + s.done)})
	}
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// gauges samples what only shows while load is running: the modeled
// chassis power, integrated to joules, and the goroutine count.
type gauges struct {
	stop, done chan struct{}
	joules     float64
	peak       int
}

func watchGauges(fl *fleet) *gauges {
	g := &gauges{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case now := <-tick.C:
				g.joules += fl.powerW() * now.Sub(last).Seconds()
				last = now
				g.peak = max(g.peak, runtime.NumGoroutine())
			case <-g.stop:
				return
			}
		}
	}()
	return g
}

func (g *gauges) finish() {
	close(g.stop)
	<-g.done
}

// engineProbe times the reference executable on its own: serial batch-1
// runs (p50 and exact allocations per run) and batch-8 runs.
func (fx *fixture) engineProbe() (b1US, allocsPerRun, b8USPerRow float64, err error) {
	const runs = 1000
	lat := make([]float64, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range lat {
		start := time.Now()
		if _, err = fx.refExe.Run(fx.inputs[i%numInputs]); err != nil {
			return 0, 0, 0, err
		}
		lat[i] = us(time.Since(start))
	}
	runtime.ReadMemStats(&after)
	batch8 := fx.stackRows(8)
	lat8 := make([]float64, 30)
	for i := range lat8 {
		start := time.Now()
		if _, err = fx.refExe.Run(batch8); err != nil {
			return 0, 0, 0, err
		}
		lat8[i] = us(time.Since(start)) / 8
	}
	return median(lat), float64(after.Mallocs-before.Mallocs) / runs, median(lat8), nil
}

// phaseWarm is the warm-up before each replay's window.
const phaseWarm = time.Second

// runTraced is the per-layer run: probes of the engine, kernels and
// verifiers on their own, one cold set-up with its steps timed, then
// the entry-depth ladder. Every Stats() read happens here, never in the
// gated run.
func runTraced(wl workload, cfg runConfig) (*result, error) {
	res := &result{workload: wl.name, metrics: map[string]float64{}}
	length := cfg.measured/6 - phaseWarm
	if length < 200*time.Millisecond {
		return nil, fmt.Errorf("-seconds %v leaves no window for six replays with a %v warm-up each", cfg.measured.Seconds(), phaseWarm)
	}
	fx, err := buildFixture(wl, cfg.seed)
	if err != nil {
		return nil, err
	}

	var artMS, relMS []float64
	for i := 0; i < 5; i++ {
		art, rel, err := fx.verifyTimes()
		if err != nil {
			return nil, err
		}
		artMS, relMS = append(artMS, ms(art)), append(relMS, ms(rel))
	}
	b1, allocs, b8, err := fx.engineProbe()
	if err != nil {
		return nil, err
	}
	gflops, gops := gemmProbe(wl.gemm)

	baseline := runtime.NumGoroutine()
	fl, steps, err := fx.deploy()
	if err != nil {
		return nil, err
	}
	deployed := fl.stats()

	chk := &checker{fx: fx}
	tr := &tracer{epoch: time.Now(), stride: max(1, int(wl.rate*(phaseWarm+length).Seconds())/spanBudget)}
	var total tally
	replayShape := func(name string, closed int, entry func(k int) inferFunc, prepare func(int, tensors) tensors) phase {
		start := time.Now()
		ph := fx.drive(chk, cfg.seed, phaseWarm, length, 1, closed, entry, prepare)
		if name != "" {
			tr.roots(name, start, ph.samples)
		}
		total.merge(ph.total)
		return ph
	}
	replay := func(name string, entry func(k int) inferFunc, prepare func(int, tensors) tensors) phase {
		return replayShape(name, 0, entry, prepare)
	}
	p50 := func(ph phase) float64 { return 1000 * percentile(ph.windows[0].latencies, 50) }
	socket := fl.bySocket()

	// Socket depth twice: untraced, for the overhead of tracing, then
	// traced with the gauges and the Stats() deltas around it.
	untraced := replay("", socket, nil)

	tr.enter()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	before, cpuBefore := fl.stats(), processCPU()
	g := watchGauges(fl)
	served := replay("serve.request", socket, nil)
	g.finish()
	after, cpuAfter := fl.stats(), processCPU()
	runtime.ReadMemStats(&memAfter)

	tr.enter()
	// The scheduler sheds past its queue depth where the front door
	// would have coalesced; waiting in the harness instead keeps the
	// offered concurrency equal at every depth.
	admitted := limit(fl.scheduler(), queueDepth)
	clustered := replay("cluster.request", func(int) inferFunc { return admitted }, nil)

	// What the fleet can take: a closed loop through the socket that
	// saturates both cores. No spans, and outside the ladder.
	flooded := replayShape("", capacityInflight, socket, nil)
	gap := fl.accountingGap()

	tr.enter()
	// One node per fleet replica, requests alternating between them:
	// the fleet's capacity without its router.
	var nodes []*node
	var engines []inferFunc
	for _, exe := range fx.exes {
		traced := spanExecutable{inner: exe, record: tr.engineSpan}
		nd, err := fx.serveNode(traced)
		if err != nil {
			fl.close()
			return nil, err
		}
		nodes = append(nodes, nd)
		engines = append(engines, direct(traced))
	}
	nodeStart := time.Now()
	noded := replay("microserver.request", func(k int) inferFunc { return nodes[k%numReplicas].infer() }, tr.prepare)
	busyShare := float64(tr.busy.Load()) / float64(time.Since(nodeStart)) / numReplicas
	for _, nd := range nodes {
		nd.close()
	}

	tr.enter()
	ran := replay("inference.request", func(k int) inferFunc { return engines[k%numReplicas] }, tr.prepare)

	fl.close()
	leaked := goroutinesLeaked(baseline)
	path, err := tr.write(cfg.outDir, wl.name)
	if err != nil {
		return nil, err
	}

	ladder := []float64{p50(served), p50(clustered), p50(noded), p50(ran)}
	res.set("serve.self_p50_us", ladder[0]-ladder[1])
	res.set("cluster.self_p50_us", ladder[1]-ladder[2])
	res.set("microserver.self_p50_us", ladder[2]-ladder[3])
	res.set("inference.self_p50_us", ladder[3])
	res.set("loadgen.trace_overhead", ladder[0]/p50(untraced)-1)

	okServed := float64(served.total.ok)
	res.set("serve.rows_per_batch", ratio(after.frontRows-before.frontRows, after.frontBatches-before.frontBatches))
	res.set("serve.overloaded", float64(after.overloaded-before.overloaded))
	res.set("serve.dial_us", us(steps.dial))
	var servedAll, servedMax int64
	for i := range after.served {
		d := after.served[i] - before.served[i]
		servedAll += d
		servedMax = max(servedMax, d)
	}
	res.set("cluster.replica_share_max", ratio(servedMax, servedAll))
	res.set("cluster.rejected", float64(after.rejected-before.rejected))
	res.set("cluster.accounting_gap", float64(gap))
	res.set("cluster.deploy_ms", ms(steps.deploy))
	res.set("microserver.rows_per_batch", ratio(after.nodeRequests-before.nodeRequests, after.nodeBatches-before.nodeBatches))
	res.set("microserver.modeled_joules_per_req", g.joules/okServed)
	res.set("inference.run_b1_us", b1)
	res.set("inference.run_b8_us_per_row", b8)
	res.set("inference.busy_share", busyShare)
	res.set("inference.allocs_per_run", allocs)
	res.set("inference.compile_ms", ms(fx.compile))
	res.set("inference.plan_cache_hits", float64(deployed.planHits))
	res.set("inference.parity_max_abs_diff", chk.maxDiff)
	res.set("inference.int8_top1_agreement", float64(chk.agree.Load())/float64(total.ok))
	res.set("tensor.gemm_f32_gflops", gflops)
	res.set("tensor.gemm_i16_gops", gops)
	res.set("tensor.gemm_bytes_per_flop", wl.gemm.bytesPerFlop())
	res.set("artifact.verify_ms", median(artMS))
	res.set("artifact.bytes", float64(len(fx.data)))
	res.set("release.verify_ms", median(relMS))
	res.set("process.alloc_kb_per_req", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/1024/okServed)
	res.set("process.gc_pause_ms", float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs)/1e6)
	res.set("process.goroutines_peak", float64(g.peak))
	res.set("process.goroutines_leaked", float64(leaked))
	late, maxLate := lateness(served.samples)
	st := served.total
	res.set("loadgen.sent", float64(st.sent))
	res.set("loadgen.ok", float64(st.ok))
	res.set("loadgen.failed", float64(st.failed))
	res.set("loadgen.shed", float64(st.shed))
	res.set("loadgen.wrong", float64(st.wrong))
	res.set("loadgen.fail_share", float64(st.bad())/float64(st.sent))
	res.set("loadgen.slo_miss_share", float64(served.windows[0].sloMiss)/float64(served.windows[0].sent))
	for _, p := range []float64{50, 90, 99} {
		res.set(fmt.Sprintf("loadgen.latency_p%.0f_ms", p), percentile(served.windows[0].latencies, p))
	}
	res.set("loadgen.max_late_ms", maxLate)
	res.set("loadgen.late_share", late)
	res.set("loadgen.cpu_ms_per_req", ms(cpuAfter-cpuBefore)/okServed)
	res.set("loadgen.capacity_rps", flooded.perWindow(func(_ window, open, close mark) float64 {
		return float64(close.ok-open.ok) / (close.at - open.at).Seconds()
	})[0])

	for _, m := range perLayer {
		res.linef("%-38s %14.4f %-8s -> %s", m.name, res.metrics[m.name], m.unit, m.moves)
	}
	res.linef("ladder p50 us: serve %.1f, cluster %.1f, microserver %.1f, inference %.1f; untraced socket %.1f",
		ladder[0], ladder[1], ladder[2], ladder[3], p50(untraced))
	res.linef("spans: %d kept, %d dropped, written to %s", len(tr.spans), tr.dropped, path)

	res.attempted, res.failed = total.sent, total.bad()
	res.judge(total, chk, gap, leaked, late)
	return res, nil
}

// limit lets at most n requests into infer at once; the rest wait.
func limit(infer inferFunc, n int) inferFunc {
	slots := make(chan struct{}, n) // counting semaphore
	return func(ctx context.Context, ins tensors) (tensors, error) {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-slots }()
		return infer(ctx, ins)
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// bytesPerFlop is the GEMM's arithmetic intensity inverted: FP32
// operand and result bytes over 2mnk, computed from the shape.
func (s gemmShape) bytesPerFlop() float64 {
	return 4 * float64(s.m*s.k+s.k*s.n+s.m*s.n) / (2 * float64(s.m) * float64(s.n) * float64(s.k))
}
