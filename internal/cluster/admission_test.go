package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// gateExe is the admission tests' inference.Executable double: every
// engine call records the requests it was handed, announces itself on
// entered, then blocks until the test opens the gate, and echoes its
// inputs. A test holds a replica's
// dispatcher inside the engine and queues requests behind it, so queue
// states form by construction and never by wall clock. modeled seeds the
// replica's service estimate (it is the executable's latency model), and
// nothing completes while the gate is shut, so routing is a function of
// the inflight counts alone; its latency model predicts modeled per row,
// so a submission of n rows is modeled at n times that.
type gateExe struct {
	modeled time.Duration
	maxW    float64
	release chan struct{}
	entered chan struct{}

	mu   sync.Mutex
	seen [][]map[string]*tensor.Tensor
}

func newGate(modeled time.Duration, maxW float64) *gateExe {
	// entered is buffered past any test's number of engine calls, so
	// the dispatcher never waits on a test that stopped listening.
	return &gateExe{modeled: modeled, maxW: maxW, release: make(chan struct{}), entered: make(chan struct{}, 256)}
}

func (e *gateExe) enter(call []map[string]*tensor.Tensor) {
	e.mu.Lock()
	e.seen = append(e.seen, call)
	e.mu.Unlock()
	e.entered <- struct{}{}
	<-e.release
}

func (e *gateExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	e.enter([]map[string]*tensor.Tensor{in})
	return in, nil
}

func (e *gateExe) RunBatch(b []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	e.enter(b)
	return b, nil
}

func (e *gateExe) PredictLatency(rows int) (time.Duration, error) {
	return time.Duration(rows) * e.modeled, nil
}

// open releases the held call and lets every later one through.
func (e *gateExe) open() { close(e.release) }

// gatedDeployment is a deployment with one replica per gate, each
// running one request at a time, closed when the test ends.
func gatedDeployment(t *testing.T, queueDepth int, gates ...*gateExe) *Deployment {
	t.Helper()
	g := gestureModel()
	d, err := newDeployment(g, "", Config{QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	for i, gate := range gates {
		mod := &microserver.Module{Name: fmt.Sprintf("gate%d", i), MaxW: gate.maxW}
		if err := d.addReplica(g, gate, "gate", i, mod); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// pending is one admitted request as the tests see it: the result
// SubmitCtx's completion delivered.
type pending struct {
	done chan struct{}
	outs map[string]*tensor.Tensor
	err  error
}

// record is one record whose completion resolves p.
func (p *pending) record(ctx context.Context, ins map[string]*tensor.Tensor) *microserver.Request {
	return &microserver.Request{Ctx: ctx, Ins: ins, Done: func(outs map[string]*tensor.Tensor, err error) {
		p.outs, p.err = outs, err
		close(p.done)
	}}
}

// submit admits a one-record submission. It fails the test if SubmitCtx
// both refuses the request and completes it, and a second completion
// panics on the closed channel.
func submit(t testing.TB, ctx context.Context, d *Deployment, ins map[string]*tensor.Tensor) (*pending, error) {
	p := &pending{done: make(chan struct{})}
	err := d.SubmitCtx([]*microserver.Request{p.record(ctx, ins)}, nil)
	if err != nil {
		if p.resolved() {
			t.Errorf("SubmitCtx refused a request with %v and also completed it", err)
		}
		return nil, err
	}
	return p, nil
}

// wait blocks until the request completes.
func (p *pending) wait() (map[string]*tensor.Tensor, error) {
	<-p.done
	return p.outs, p.err
}

func (p *pending) resolved() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// submitN admits n requests, failing the test if any is refused.
func submitN(t *testing.T, d *Deployment, n int) []*pending {
	t.Helper()
	ins := map[string]*tensor.Tensor{d.inputNames[0]: gestureInput(1)}
	ps := make([]*pending, n)
	for i := range ps {
		p, err := submit(t, context.Background(), d, ins)
		if err != nil {
			t.Fatalf("submit %d of %d: %v", i+1, n, err)
		}
		ps[i] = p
	}
	return ps
}

// single runs one request through d, which serves the 1-in/1-out model
// g, and returns its output.
func single(d *Deployment, g *nn.Graph, in *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := d.InferCtx(context.Background(), map[string]*tensor.Tensor{d.inputNames[0]: in})
	if err != nil {
		return nil, err
	}
	return outs[g.Outputs[0]], nil
}

// TestAdmissionBoundIsExact holds the engine shut: exactly QueueDepth
// requests are admitted, the next is shed, and a slot frees the moment a
// request completes.
func TestAdmissionBoundIsExact(t *testing.T) {
	const k = 5
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, k, gate)
	ps := submitN(t, d, k)
	<-gate.entered // one running, k-1 queued behind it
	ins := map[string]*tensor.Tensor{d.inputNames[0]: gestureInput(1)}
	if _, err := submit(t, context.Background(), d, ins); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("request %d of depth %d returned %v, want ErrOverloaded", k+1, k, err)
	}
	if st := d.Stats(); st.Submitted != k+1 || st.Rejected != 1 || st.Completed != 0 {
		t.Errorf("held: submitted %d rejected %d completed %d, want %d 1 0", st.Submitted, st.Rejected, st.Completed, k+1)
	}
	gate.open()
	for i, p := range ps {
		if _, err := p.wait(); err != nil {
			t.Errorf("admitted request %d failed: %v", i, err)
		}
	}
	st := d.Stats()
	if st.Submitted != st.Completed+st.Rejected {
		t.Errorf("submitted %d != completed %d + rejected %d", st.Submitted, st.Completed, st.Rejected)
	}
	// Every slot is free again.
	for _, p := range submitN(t, d, k) {
		p.wait()
	}
}

// TestAdmissionSpawnsNoGoroutines: outstanding requests are entries in
// a replica's queue, not goroutines.
func TestAdmissionSpawnsNoGoroutines(t *testing.T) {
	const n = 48
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, n+1, gate)
	plug := submitN(t, d, 1)
	<-gate.entered
	before := runtime.NumGoroutine()
	ps := submitN(t, d, n)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d outstanding requests grew the process from %d to %d goroutines", n, before, after)
	}
	gate.open()
	for _, p := range append(plug, ps...) {
		if _, err := p.wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionBurstRunsOneTicketPerEngineRun bursts requests of
// distinct row counts onto one held replica: every request becomes one
// engine run carrying exactly its own rows, in submission order. That
// one run carries one request is what lets the replica's engine time,
// divided by the request's rows, stand as its per-row service time.
func TestAdmissionBurstRunsOneTicketPerEngineRun(t *testing.T) {
	const n = 12
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, n, gate)
	ins := make([]*tensor.Tensor, n)
	ps := make([]*pending, n)
	for i := range ps {
		ins[i] = tensor.New(tensor.FP32, i+1, 1, 16, 16)
		p, err := submit(t, context.Background(), d, map[string]*tensor.Tensor{d.inputNames[0]: ins[i]})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	<-gate.entered // one running, n-1 queued behind it
	gate.open()
	for i, p := range ps {
		outs, err := p.wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if outs[d.inputNames[0]] != ins[i] {
			t.Errorf("request %d completed with another request's rows", i)
		}
	}
	gate.mu.Lock()
	seen := gate.seen
	gate.mu.Unlock()
	if len(seen) != n {
		t.Fatalf("%d requests became %d engine runs", n, len(seen))
	}
	for i, call := range seen {
		if len(call) != 1 || call[0][d.inputNames[0]] != ins[i] {
			t.Fatalf("engine run %d does not carry exactly request %d's %d rows", i, i, i+1)
		}
	}
	if st := d.Stats(); st.Submitted != n || st.Completed != n || st.Rejected != 0 {
		t.Errorf("submitted %d completed %d rejected %d, want %d %d 0", st.Submitted, st.Completed, st.Rejected, n, n)
	}
}

// TestCloseResolvesQueuedTickets closes a deployment with requests
// queued behind a held engine: the running one completes, the queued
// ones complete with ErrClosed, and the replica counts one served and
// the rest shed.
func TestCloseResolvesQueuedTickets(t *testing.T) {
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, 8, gate)
	ps := submitN(t, d, 4)
	<-gate.entered
	closed := make(chan struct{})
	go func() { d.close(); close(closed) }()
	// close is now parked on the held dispatcher. An empty submission
	// queues nothing, and a closed server refuses it with ErrClosed, so
	// this probe turns true exactly when the drain is armed.
	srv := d.replicas[0].server
	for !errors.Is(srv.Submit(nil, nil), microserver.ErrClosed) {
		runtime.Gosched()
	}
	gate.open()
	<-closed
	for i, p := range ps {
		if !p.resolved() {
			t.Fatalf("request %d not completed after close returned", i)
		}
		_, err := p.wait()
		if i == 0 && err != nil {
			t.Errorf("running request failed across close: %v", err)
		}
		if i > 0 && !errors.Is(err, ErrClosed) {
			t.Errorf("queued request %d completed with %v, want ErrClosed", i, err)
		}
	}
	if _, err := submit(t, context.Background(), d, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close returned %v, want ErrClosed", err)
	}
	st := d.Stats()
	if st.Submitted != 4 || st.Completed != 4 || st.Rejected != 0 {
		t.Errorf("submitted %d completed %d rejected %d, want 4 4 0", st.Submitted, st.Completed, st.Rejected)
	}
	// Drained requests never ran: not a replica fault, not a service sample.
	if rs := st.Replicas[0]; rs.Served != 1 || rs.Failed != 0 || rs.Shed != 3 || rs.Inflight != 0 {
		t.Errorf("replica served %d failed %d shed %d inflight %d, want 1 0 3 0", rs.Served, rs.Failed, rs.Shed, rs.Inflight)
	}
}

// TestSaturatedReplicaDoesNotBlockRouting holds one replica shut with a
// backlog: the request whose cost favours the other replica is served
// while the first is still held, and each replica serves exactly the
// requests the rule gave it.
func TestSaturatedReplicaDoesNotBlockRouting(t *testing.T) {
	fast := newGate(time.Millisecond, 5)
	slow := newGate(3*time.Millisecond, 40)
	slow.open()
	d := gatedDeployment(t, 8, fast, slow)
	// Costs 1, 2, 3 ms on the fast replica against 3 ms on the slow one
	// (the tie goes to the lower MaxW), then 4 ms against 3.
	backlog := submitN(t, d, 3)
	<-fast.entered
	if _, err := submitN(t, d, 1)[0].wait(); err != nil {
		t.Fatal(err)
	}
	if served := d.replicas[1].Stats().Served; served != 1 {
		t.Errorf("the idle replica served %d requests, want the fourth", served)
	}
	for i, b := range backlog {
		if b.resolved() {
			t.Errorf("backlog request %d completed while its replica was held", i)
		}
	}
	fast.open()
	for _, b := range backlog {
		if _, err := b.wait(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := d.replicas[0].Stats().Served, d.replicas[1].Stats().Served; a != 3 || b != 1 {
		t.Errorf("replicas served %d and %d, want the backlog of 3 on the held one and 1", a, b)
	}
}

// TestBurstFollowsEstimate pins the routing property where it is
// deterministic: with every replica held shut nothing completes, so a
// burst is placed on the fixed estimates alone and must split exactly as
// the greedy rule says, each request to the lowest (inflight+1) x
// estimate. The cluster study shows the same on live replicas, where
// completions race the burst.
func TestBurstFollowsEstimate(t *testing.T) {
	ests := []time.Duration{300 * time.Microsecond, 1402 * time.Microsecond, 1011 * time.Microsecond}
	gates := make([]*gateExe, len(ests))
	for i, est := range ests {
		gates[i] = newGate(est, float64(3+i))
	}
	const burst = 96
	d := gatedDeployment(t, burst, gates...)
	// The expected split: the routing rule replayed over the test's own
	// counters, one request at a time.
	want := make([]int64, len(ests))
	for n := 0; n < burst; n++ {
		want[cheapest(len(ests),
			func(i int) float64 { return float64(want[i]+1) * float64(ests[i]) },
			func(i int) float64 { return gates[i].maxW })]++
	}
	ps := submitN(t, d, burst)
	for i, r := range d.replicas {
		if got := r.inflight.Load(); got != want[i] {
			t.Errorf("replica %d (estimate %v) holds %d of the burst, want %d", i, ests[i], got, want[i])
		}
	}
	if !(want[0] > want[2] && want[2] > want[1]) {
		t.Errorf("split %v does not order the replicas by estimate", want)
	}
	for _, gate := range gates {
		gate.open()
	}
	for _, p := range ps {
		if _, err := p.wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEmulatedBatchWaitsForItsRows: under EmulateLatency a submission
// completes no sooner than its backend's latency model says for all the
// rows it carries. The model here costs 20 ms a row, and the submission
// holds two records of one and three rows: the accounting and both
// records complete 80 ms after it was made at the earliest, not after
// one row's 20 ms.
func TestEmulatedBatchWaitsForItsRows(t *testing.T) {
	const perRow = 20 * time.Millisecond
	gate := newGate(perRow, 5)
	gate.open()
	d := gatedDeployment(t, 4, gate)
	d.emulate = true
	name := d.inputNames[0]
	one, three := &pending{done: make(chan struct{})}, &pending{done: make(chan struct{})}
	var freed time.Duration
	start := time.Now()
	if err := d.SubmitCtx([]*microserver.Request{
		one.record(context.Background(), map[string]*tensor.Tensor{name: tensor.New(tensor.FP32, 1, 1, 16, 16)}),
		three.record(context.Background(), map[string]*tensor.Tensor{name: tensor.New(tensor.FP32, 3, 1, 16, 16)}),
	}, func() { freed = time.Since(start) }); err != nil {
		t.Fatal(err)
	}
	for i, p := range []*pending{one, three} {
		if _, err := p.wait(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if waited := time.Since(start); waited < 4*perRow {
			t.Errorf("record %d answered after %v, before the 4 rows' modeled %v", i, waited, 4*perRow)
		}
	}
	if freed < 4*perRow {
		t.Errorf("the submission's slot was freed after %v, before the modeled %v", freed, 4*perRow)
	}
}

// TestEmulatedReplicaIsSerial: under EmulateLatency a replica is one
// modeled device, which runs one submission after another. Four one-row
// submissions made at once to a replica modeled at 20 ms a row complete
// no sooner than 20, 40, 60 and 80 ms after they were made.
func TestEmulatedReplicaIsSerial(t *testing.T) {
	const perRow = 20 * time.Millisecond
	gate := newGate(perRow, 5)
	gate.open()
	d := gatedDeployment(t, 4, gate)
	d.emulate = true
	start := time.Now()
	for i, p := range submitN(t, d, 4) {
		if _, err := p.wait(); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if waited, want := time.Since(start), time.Duration(i+1)*perRow; waited < want {
			t.Errorf("submission %d answered after %v, before the modeled device could reach it (%v)", i, waited, want)
		}
	}
}

// TestEmulatedReplicaKeepsModeledRate: under EmulateLatency a replica
// serves at its modeled rate, not at the rate its wake-ups allow. Fifty
// one-row submissions made at once to a replica modeled at 400 µs a row
// complete no sooner than (i+1)×400 µs after they were made, and all of
// them within the modeled 20 ms plus 15 ms: a wake-up that overshoots
// its modeled time shortens the next submission's hold instead of
// adding up (a millisecond of overshoot per sleep makes that ~55 ms).
// The upper bound reads wall time, which a loaded host stretches, so it
// holds for the best of up to ten attempts on fresh replicas; the test
// stays out of the race stress.
func TestEmulatedReplicaKeepsModeledRate(t *testing.T) {
	const perRow, n, slack, attempts = 400 * time.Microsecond, 50, 15 * time.Millisecond, 10
	bound := n*perRow + slack
	best := time.Duration(math.MaxInt64)
	for a := 0; a < attempts && best > bound; a++ {
		gate := newGate(perRow, 5)
		gate.open()
		d := gatedDeployment(t, n, gate)
		d.emulate = true
		start := time.Now()
		for i, p := range submitN(t, d, n) {
			if _, err := p.wait(); err != nil {
				t.Fatalf("submission %d: %v", i, err)
			}
			if waited, want := time.Since(start), time.Duration(i+1)*perRow; waited < want {
				t.Errorf("submission %d answered after %v, before the modeled device could reach it (%v)", i, waited, want)
			}
		}
		best = min(best, time.Since(start))
	}
	if best > bound {
		t.Errorf("%d submissions took %v at best of %d attempts, want at most %v (%v modeled)", n, best, attempts, bound, n*perRow)
	}
}

// TestCloseCompletesEmulated: under EmulateLatency the modeled wait is
// part of the replica's run, so close, which waits for the run, returns
// only after the running submission's records have completed, and the
// queued ones have completed with ErrClosed. The accounting then closes
// with nothing in flight.
func TestCloseCompletesEmulated(t *testing.T) {
	gate := newGate(50*time.Millisecond, 5)
	gate.open()
	d := gatedDeployment(t, 4, gate)
	d.emulate = true
	ps := submitN(t, d, 3)
	<-gate.entered // the first is in its run; close lands within its modeled wait
	d.close()
	for i, p := range ps {
		if !p.resolved() {
			t.Fatalf("request %d not completed after close returned", i)
		}
		if _, err := p.wait(); (i == 0 && err != nil) || (err != nil && !errors.Is(err, ErrClosed)) {
			t.Errorf("request %d completed with %v", i, err)
		}
	}
	st := d.Stats()
	if st.Submitted != 3 || st.Submitted != st.Completed+st.Rejected || st.Replicas[0].Inflight != 0 {
		t.Errorf("submitted %d completed %d rejected %d inflight %d after close, want 3 3 0 0",
			st.Submitted, st.Completed, st.Rejected, st.Replicas[0].Inflight)
	}
}
