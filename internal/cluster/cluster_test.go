package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// urecsFleet builds the paper's far-edge chassis with a heterogeneous
// 3-module fleet: a plain ARM module (host CPU engine), a Jetson Xavier
// NX and a Coral SoM (two distinct accel device models).
func urecsFleet(t *testing.T) *microserver.Chassis {
	t.Helper()
	c := microserver.NewURECS()
	for slot, name := range []string{"SMARC ARM", "Jetson Xavier NX", "Coral SoM"} {
		m, err := microserver.FindModule(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// oneReplicaScheduler builds a scheduler over a single host-CPU module
// whose replica runs one request at a time, so a burst backs up behind
// it to the given admission depth.
func oneReplicaScheduler(t *testing.T, queueDepth int) *Scheduler {
	t.Helper()
	c := microserver.NewURECS()
	m, err := microserver.FindModule("SMARC ARM")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(0, m); err != nil {
		t.Fatal(err)
	}
	return NewScheduler(c, Config{QueueDepth: queueDepth})
}

func gestureModel() *nn.Graph {
	return nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
}

func gestureInput(seed int) *tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range in.F32 {
		in.F32[i] = float32((i*3+seed*7)%17)/17 - 0.5
	}
	return in
}

func TestDeployHeterogeneousFleetParity(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Replicas()) != 3 {
		t.Fatalf("deployed %d replicas, want 3", len(dep.Replicas()))
	}
	backends := map[string]bool{}
	for _, r := range dep.Replicas() {
		backends[r.Backend()] = true
	}
	for _, want := range []string{"cpu-engine", "accel:Xavier NX", "accel:EdgeTPU SoM"} {
		if !backends[want] {
			t.Errorf("fleet missing backend %s (have %v)", want, backends)
		}
	}
	// Warm-up exercised every backend end to end.
	for _, rs := range dep.Stats().Replicas {
		if rs.Served < 1 {
			t.Errorf("replica %d (%s) served %d requests after warmup, want >= 1", rs.ID, rs.Backend, rs.Served)
		}
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 6; seed++ {
		in := gestureInput(seed)
		want, err := eng.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dep.InferSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("seed %d: fleet result diverges from reference engine by %g", seed, d)
		}
	}
}

func TestSubmitWaitAsync(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{QueueDepth: 128})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := gestureInput(1)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := sched.Submit(g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		outs, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if d, _ := tensor.MaxAbsDiff(want, outs[g.Outputs[0]]); d != 0 {
			t.Errorf("ticket %d diverges by %g", i, d)
		}
		if tk.Replica() == nil {
			t.Errorf("ticket %d resolved without a replica", i)
		}
		if tk.Latency() <= 0 {
			t.Errorf("ticket %d has no latency", i)
		}
	}
	st := dep.Stats()
	if st.Submitted != n {
		t.Errorf("submitted %d, want %d", st.Submitted, n)
	}
	if st.Completed != n {
		t.Errorf("completed %d, want %d", st.Completed, n)
	}
}

// TestAdmissionShedsWhenSaturated pins the admission-control path: with
// a single slow replica and an admission depth of one, an open-loop
// burst must shed some requests with ErrOverloaded while every admitted
// request still resolves.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	sched := oneReplicaScheduler(t, 1)
	defer sched.Close()
	g := nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 9})
	if _, err := sched.Deploy(g); err != nil {
		t.Fatal(err)
	}
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, g.Node(g.Inputs[0]).OutShape...)
	ins := map[string]*tensor.Tensor{g.Inputs[0]: in}

	const burst = 50
	var tickets []*Ticket
	shed := 0
	for i := 0; i < burst; i++ {
		tk, err := sched.Submit(g.Name, ins)
		switch {
		case err == nil:
			tickets = append(tickets, tk)
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if shed == 0 {
		t.Error("saturated fleet shed no load; want ErrOverloaded for part of the burst")
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Errorf("admitted ticket %d failed: %v", i, err)
		}
	}
	st, err := sched.Deployment(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if got := stats.Rejected; got != int64(shed) {
		t.Errorf("stats recorded %d rejected, want %d", got, shed)
	}
	if stats.Completed != int64(len(tickets)) {
		t.Errorf("stats recorded %d completed, want %d", stats.Completed, len(tickets))
	}
}

// TestStatsInvariantHoldsWhenShedding overfills a depth-1 deployment so
// most of a burst is shed, then checks the accounting once idle: every
// admission attempt is in Submitted, and each one ended up in Completed
// or Rejected.
func TestStatsInvariantHoldsWhenShedding(t *testing.T) {
	sched := oneReplicaScheduler(t, 1)
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: gestureInput(1)}
	const burst = 200
	var admitted []*Ticket
	for i := 0; i < burst; i++ {
		tk, err := dep.Submit(ins)
		switch {
		case err == nil:
			admitted = append(admitted, tk)
		case !errors.Is(err, ErrOverloaded):
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, tk := range admitted {
		tk.Wait() // idle once every admitted ticket has resolved
	}
	st := dep.Stats()
	if st.Rejected == 0 {
		t.Fatal("burst shed nothing; the invariant was not exercised under shedding")
	}
	if st.Submitted != burst {
		t.Errorf("submitted %d, want every one of the %d admission attempts", st.Submitted, burst)
	}
	if st.Submitted != st.Completed+st.Rejected {
		t.Errorf("stats invariant broken under shedding: submitted %d != completed %d + rejected %d",
			st.Submitted, st.Completed, st.Rejected)
	}
}

// TestCloseRacingSubmit hammers Submit while Close lands mid-storm:
// every admitted ticket must resolve (result or ErrClosed) and later
// submissions must fail fast.
func TestCloseRacingSubmit(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{QueueDepth: 256})
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: gestureInput(1)}
	const clients = 24
	var wg sync.WaitGroup
	unresolved := make(chan int, clients)
	for cidx := 0; cidx < clients; cidx++ {
		wg.Add(1)
		go func(cidx int) {
			defer wg.Done()
			tk, err := sched.Submit(g.Name, ins)
			if err != nil {
				return // refused at admission: fine
			}
			if outs, err := tk.Wait(); err == nil && outs == nil {
				unresolved <- cidx
			}
		}(cidx)
	}
	sched.Close()
	wg.Wait()
	close(unresolved)
	for cidx := range unresolved {
		t.Errorf("client %d: ticket resolved with neither result nor error", cidx)
	}
	if _, err := sched.Submit(g.Name, ins); err == nil {
		t.Error("Submit succeeded after Close")
	}
	sched.Close() // idempotent
	// Tickets failed by the shutdown drain still count as completed.
	st := dep.Stats()
	if st.Submitted != st.Completed+st.Rejected {
		t.Errorf("stats invariant broken after Close: submitted %d != completed %d + rejected %d",
			st.Submitted, st.Completed, st.Rejected)
	}
}

// TestRoutingPrefersFastestAtLowLoad runs strictly sequential requests
// (queue depth always zero at routing time), where the cost model
// reduces to the pure service estimate: every request must land on the
// replica with the lowest estimate.
func TestRoutingPrefersFastestAtLowLoad(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	var fastest *Replica
	for _, r := range dep.Replicas() {
		if fastest == nil || r.ServiceEstimate() < fastest.ServiceEstimate() {
			fastest = r
		}
	}
	before := fastest.Stats().Served
	const serial = 12
	for i := 0; i < serial; i++ {
		if _, err := dep.InferSingle(gestureInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fastest.Stats().Served - before; got != serial {
		t.Errorf("fastest replica (%s) served %d of %d sequential requests, want all", fastest.Backend(), got, serial)
	}
}

// TestPickPowerTieBreak drives the one routing rule from one table,
// directly and through both of its callers: costs within 2% of the
// running best tie and resolve toward the lower worst-case module
// power; outside the band the cheaper replica wins whatever it draws.
func TestPickPowerTieBreak(t *testing.T) {
	type member struct {
		service  time.Duration
		inflight int64 // requests ahead: cost is (inflight+1) x service
		maxW     float64
	}
	const us = time.Microsecond
	cases := []struct {
		name  string
		fleet []member
		want  int
	}{
		{"equal costs, lower MaxW wins", []member{{1000 * us, 0, 40}, {1000 * us, 0, 5}}, 1},
		{"equal costs, equal MaxW keeps the first", []member{{1000 * us, 0, 5}, {1000 * us, 0, 5}}, 0},
		{"clear gap overrides power", []member{{100 * us, 0, 40}, {1000 * us, 0, 5}}, 0},
		{"queue depth scales the cost", []member{{100 * us, 50, 40}, {1000 * us, 0, 5}}, 1},
		{"1.9% dearer and frugal: tied, power wins", []member{{100000, 0, 40}, {101900, 0, 5}}, 1},
		{"2.1% dearer and frugal: outside the band", []member{{100000, 0, 40}, {102100, 0, 5}}, 0},
		{"1.9% cheaper but hungry: tied, stays", []member{{100000, 0, 5}, {98100, 0, 40}}, 0},
		{"2.1% cheaper and hungry: cost wins", []member{{100000, 0, 5}, {97900, 0, 40}}, 1},
		{"ties chain to the lowest MaxW", []member{{100000, 0, 40}, {101000, 0, 5}, {101500, 0, 3}}, 2},
		{"single replica", []member{{1000 * us, 3, 5}}, 0},
	}
	for _, c := range cases {
		cost := func(i int) time.Duration { return time.Duration(c.fleet[i].inflight+1) * c.fleet[i].service }
		got := cheapest(len(c.fleet),
			func(i int) float64 { return float64(cost(i)) },
			func(i int) float64 { return c.fleet[i].maxW })
		if got != c.want {
			t.Errorf("%s: cheapest chose %d, want %d", c.name, got, c.want)
		}

		d := &Deployment{}
		var sim []SimReplica
		for i, m := range c.fleet {
			r := &Replica{id: i, modeled: m.service, maxW: m.maxW}
			r.inflight.Store(m.inflight)
			d.replicas = append(d.replicas, r)
			sim = append(sim, SimReplica{Service: cost(i), MaxW: m.maxW})
		}
		if got := d.pick().id; got != c.want {
			t.Errorf("%s: pick chose replica %d, want %d", c.name, got, c.want)
		}
		// One arrival into an idle simulated fleet: completion time is
		// the service time, so the same costs meet the same rule.
		res, err := SimulateTrace(sim, Trace{Arrivals: []time.Duration{0}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.PerReplica[c.want].Served; got != 1 {
			t.Errorf("%s: SimulateTrace served %d of 1 on replica %d: %+v", c.name, got, c.want, res.PerReplica)
		}
	}
}

func TestDeployErrors(t *testing.T) {
	sched := NewScheduler(microserver.NewURECS(), Config{})
	defer sched.Close()
	if _, err := sched.Deploy(gestureModel()); err == nil {
		t.Error("Deploy succeeded on an empty chassis")
	}
	c := urecsFleet(t)
	sched2 := NewScheduler(c, Config{})
	defer sched2.Close()
	if _, err := sched2.Deploy(gestureModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := sched2.Deploy(gestureModel()); err == nil {
		t.Error("duplicate model deployment succeeded")
	}
	if _, err := sched2.Deployment("nope"); err == nil {
		t.Error("Deployment resolved an unknown model")
	}
}

// TestObserveShedExcludedFromEWMA pins the admission-accounting fix:
// shed and cancelled completions must never feed the service-time EWMA
// or the failure count — they measured queueing, not service.
func TestObserveShedExcludedFromEWMA(t *testing.T) {
	r := &Replica{}
	r.observe(time.Millisecond, nil)
	base := r.ewmaNS.Load()
	if base != int64(time.Millisecond) {
		t.Fatalf("first served observation set EWMA to %d, want %d", base, time.Millisecond)
	}
	for _, err := range []error{ErrOverloaded, context.Canceled, context.DeadlineExceeded} {
		r.observe(time.Hour, err)
	}
	if got := r.ewmaNS.Load(); got != base {
		t.Errorf("shed observations moved EWMA %d -> %d; want unchanged", base, got)
	}
	if got := r.shed.Load(); got != 3 {
		t.Errorf("shed count %d, want 3", got)
	}
	if got := r.failed.Load(); got != 0 {
		t.Errorf("shed observations counted as failed (%d)", got)
	}
	// A genuine engine fault still counts as failed, still skips the EWMA.
	r.observe(time.Hour, errors.New("engine fault"))
	if got := r.failed.Load(); got != 1 {
		t.Errorf("failed count %d, want 1", got)
	}
	if got := r.ewmaNS.Load(); got != base {
		t.Errorf("failed observation moved EWMA %d -> %d; want unchanged", base, got)
	}
	if got := r.served.Load(); got != 1 {
		t.Errorf("served count %d, want 1", got)
	}
}

// timedExe is an engine double whose run takes as long as its request
// asks: the first input element in milliseconds. The second element
// picks the outcome: 0 returns the inputs, 1 an engine error, 2 a panic.
// Each run announces itself on entered and records how long it took by
// its own clock in ran.
type timedExe struct {
	entered chan struct{}
	mu      sync.Mutex
	ran     []time.Duration
}

func (e *timedExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	start := time.Now()
	e.entered <- struct{}{}
	var x []float32
	for _, t := range in {
		x = t.F32
	}
	time.Sleep(time.Duration(x[0]) * time.Millisecond)
	e.mu.Lock()
	e.ran = append(e.ran, time.Since(start))
	e.mu.Unlock()
	switch x[1] {
	case 1:
		return nil, errors.New("engine fault")
	case 2:
		panic("kernel fault")
	}
	return in, nil
}

func (e *timedExe) RunBatch(b []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	return nil, errors.New("timedExe: no batch path")
}

// timedDeployment is a one-replica deployment over a timedExe with no
// latency model, so the router weighs the observed EWMA alone.
func timedDeployment(t *testing.T) (*Deployment, *timedExe) {
	t.Helper()
	g := gestureModel()
	d, err := newDeployment(g, "", Config{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	// entered has room for every run a test makes, so a run never waits
	// on a test that stopped listening.
	exe := &timedExe{entered: make(chan struct{}, 16)}
	if err := d.addReplica(g, exe, "timed", 0, &microserver.Module{Name: "timed", MaxW: 5}); err != nil {
		t.Fatal(err)
	}
	return d, exe
}

// timedInput is a request of the given rows that runs ms milliseconds
// with the given outcome (see timedExe).
func timedInput(d *Deployment, rows int, ms, outcome float32) map[string]*tensor.Tensor {
	in := tensor.New(tensor.FP32, rows, 1, 16, 16)
	in.F32[0], in.F32[1] = ms, outcome
	return map[string]*tensor.Tensor{d.inputNames[0]: in}
}

// TestObservedServiceIsEngineTime: the EWMA is fed the time the replica
// spent in its engine, per row, and not the ticket's time in the queue.
// Ticket A fails after 60 ms (a failure leaves the EWMA untouched);
// ticket B, queued behind it, runs 10 ms and is the first observation,
// so the EWMA reads B's alone: its own run, not (60 + 10) / 2. A 4-row
// ticket on a fresh replica observes its run / 4.
func TestObservedServiceIsEngineTime(t *testing.T) {
	// What the replica's clock may add to the engine double's own, per
	// run: the call around it and a descheduled goroutine under load.
	const slack = 10 * time.Millisecond
	d, exe := timedDeployment(t)
	a, err := d.Submit(timedInput(d, 1, 60, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-exe.entered // A is in the engine; B queues behind it
	b, err := d.Submit(timedInput(d, 1, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(); err == nil {
		t.Fatal("ticket A did not fail")
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	obs, ranB := d.replicas[0].Stats().Observed, exe.ran[1]
	if obs < ranB || obs > ranB+slack {
		t.Errorf("B observed %v; its engine run took %v (A's %v)", obs, ranB, exe.ran[0])
	}

	d, exe = timedDeployment(t)
	c, err := d.Submit(timedInput(d, 4, 40, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	obs, per := d.replicas[0].Stats().Observed, exe.ran[0]/4
	if obs < per || obs > (exe.ran[0]+slack)/4 {
		t.Errorf("4-row ticket observed %v per row; its run took %v, %v per row", obs, exe.ran[0], per)
	}
}

// TestEnginePanicRecovers: a panicking engine run fails its own ticket
// with an error and counts as the replica's failure; the EWMA stays
// where it was, the accounting invariant holds and the replica serves
// the next ticket.
func TestEnginePanicRecovers(t *testing.T) {
	d, _ := timedDeployment(t)
	if _, err := d.Infer(timedInput(d, 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	before := d.replicas[0].Stats().Observed
	if _, err := d.Infer(timedInput(d, 1, 1, 2)); err == nil || isShed(err) {
		t.Fatalf("panicking run resolved with %v, want an engine error", err)
	}
	if after := d.replicas[0].Stats().Observed; after != before {
		t.Errorf("the panicking run moved the EWMA %v -> %v", before, after)
	}
	if _, err := d.Infer(timedInput(d, 1, 1, 0)); err != nil {
		t.Fatalf("replica did not serve after a panic: %v", err)
	}
	st := d.Stats()
	rs := st.Replicas[0]
	if rs.Failed != 1 || rs.Served != 2 {
		t.Errorf("served %d failed %d, want 2 1", rs.Served, rs.Failed)
	}
	if st.Submitted != st.Completed+st.Rejected {
		t.Errorf("submitted %d != completed %d + rejected %d", st.Submitted, st.Completed, st.Rejected)
	}
}

// TestBatchRows: a submission's rows are what inference.CheckInputs
// reads from it. A map the check refuses is refused by SubmitCtx before
// it counts anywhere; one it passes runs as exactly its rows.
func TestBatchRows(t *testing.T) {
	gate := newGate(time.Millisecond, 5)
	gate.open()
	d := gatedDeployment(t, 4, gate)
	name := d.inputNames[0]
	for what, ins := range map[string]map[string]*tensor.Tensor{
		"no inputs":      nil,
		"nil tensor":     {name: nil},
		"wrong trailing": {name: tensor.New(tensor.FP32, 1, 1, 8, 8)},
		"zero rows":      {name: tensor.New(tensor.FP32, 0, 1, 16, 16)},
	} {
		if _, err := d.Submit(ins); !errors.Is(err, inference.ErrBadInput) {
			t.Errorf("%s: Submit returned %v, want inference.ErrBadInput", what, err)
		}
	}
	if st := d.Stats(); st.Submitted != 0 || st.Replicas[0].Failed != 0 {
		t.Errorf("refused requests counted: submitted %d, replica failed %d, want 0 0", st.Submitted, st.Replicas[0].Failed)
	}
	six := tensor.New(tensor.FP32, 6, 1, 16, 16)
	outs, err := d.Infer(map[string]*tensor.Tensor{name: six})
	if err != nil {
		t.Fatal(err)
	}
	if outs[name] != six {
		t.Error("a six-row submission did not reach the engine as the caller's own tensor")
	}
	if st := d.Stats(); st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("submitted %d completed %d after one good request, want 1 1", st.Submitted, st.Completed)
	}
}

// TestSubmitCtxCancelPropagation drives the context path on a replica
// held shut (gateExe), so every queue state forms by construction: a
// dead context is refused at admission; WaitCtx unblocks a caller whose
// own context expires while its ticket is still inside the engine; and
// a ticket cancelled while it is queued resolves with the context error
// once the replica reaches it, never runs, and counts in
// Stats.Cancelled.
func TestSubmitCtxCancelPropagation(t *testing.T) {
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, 8, gate)
	ins := map[string]*tensor.Tensor{d.inputNames[0]: gestureInput(3)}

	// Dead context: refused before admission, no ticket minted.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := d.SubmitCtx(dead, ins); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context submit returned %v, want context.Canceled", err)
	}
	if st := d.Stats(); st.Submitted != 0 {
		t.Errorf("dead-context submit counted: submitted %d, want 0", st.Submitted)
	}

	// One live ticket inside the engine, one queued behind it whose
	// caller vanishes while it waits.
	live := submitN(t, d, 1)[0]
	<-gate.entered
	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := d.SubmitCtx(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	cancel()

	// WaitCtx: the waiting caller's own deadline unblocks the wait; the
	// ticket itself is still held and completes normally later.
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if _, err := live.WaitCtx(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitCtx with expired context returned %v, want deadline exceeded", err)
	}
	if resolved(doomed) {
		t.Error("cancelled ticket resolved while the replica was still held")
	}

	gate.open()
	if _, err := doomed.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ticket resolved with %v, want context.Canceled", err)
	}
	if _, err := live.Wait(); err != nil {
		t.Errorf("ticket abandoned by WaitCtx failed to complete: %v", err)
	}
	gate.mu.Lock()
	calls := len(gate.seen)
	gate.mu.Unlock()
	if calls != 1 {
		t.Errorf("engine ran %d times, want 1: a ticket cancelled in the queue must not run", calls)
	}
	st := d.Stats()
	if st.Cancelled != 1 {
		t.Errorf("stats recorded %d cancelled, want 1", st.Cancelled)
	}
	if st.Submitted != 2 || st.Submitted != st.Completed+st.Rejected {
		t.Errorf("stats invariant broken: submitted %d (want 2) != completed %d + rejected %d",
			st.Submitted, st.Completed, st.Rejected)
	}
}
