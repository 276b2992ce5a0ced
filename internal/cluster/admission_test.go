package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vedliot/internal/microserver"
	"vedliot/internal/tensor"
)

// gateExe is the admission tests' inference.Executable double: every
// engine call records the requests it was handed, announces itself on
// entered, then blocks until the test opens the gate, and echoes its
// inputs. A test holds a replica's
// dispatcher inside the engine and queues tickets behind it, so queue
// states form by construction and never by wall clock. modeled pins the
// replica's service estimate (it is the executable's latency model), so
// routing is a function of the inflight counts alone.
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

func (e *gateExe) PredictLatency(int) (time.Duration, error) { return e.modeled, nil }

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

// submitN admits n tickets, failing the test if any is refused.
func submitN(t *testing.T, d *Deployment, n int) []*Ticket {
	t.Helper()
	ins := map[string]*tensor.Tensor{d.inputNames[0]: gestureInput(1)}
	tks := make([]*Ticket, n)
	for i := range tks {
		tk, err := d.Submit(ins)
		if err != nil {
			t.Fatalf("submit %d of %d: %v", i+1, n, err)
		}
		tks[i] = tk
	}
	return tks
}

func resolved(tk *Ticket) bool {
	select {
	case <-tk.done:
		return true
	default:
		return false
	}
}

// TestAdmissionBoundIsExact holds the engine shut: exactly QueueDepth
// tickets are admitted, the next is shed, and a slot frees the moment a
// ticket resolves.
func TestAdmissionBoundIsExact(t *testing.T) {
	const k = 5
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, k, gate)
	tks := submitN(t, d, k)
	<-gate.entered // one running, k-1 queued behind it
	ins := map[string]*tensor.Tensor{d.inputNames[0]: gestureInput(1)}
	if _, err := d.Submit(ins); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("ticket %d of depth %d returned %v, want ErrOverloaded", k+1, k, err)
	}
	if st := d.Stats(); st.Submitted != k+1 || st.Rejected != 1 || st.Completed != 0 {
		t.Errorf("held: submitted %d rejected %d completed %d, want %d 1 0", st.Submitted, st.Rejected, st.Completed, k+1)
	}
	gate.open()
	for i, tk := range tks {
		if _, err := tk.Wait(); err != nil {
			t.Errorf("admitted ticket %d failed: %v", i, err)
		}
	}
	st := d.Stats()
	if st.Submitted != st.Completed+st.Rejected {
		t.Errorf("submitted %d != completed %d + rejected %d", st.Submitted, st.Completed, st.Rejected)
	}
	// Every slot is free again.
	for _, tk := range submitN(t, d, k) {
		tk.Wait()
	}
}

// TestAdmissionSpawnsNoGoroutines: outstanding tickets are entries in a
// replica's queue, not goroutines.
func TestAdmissionSpawnsNoGoroutines(t *testing.T) {
	const n = 48
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, n+1, gate)
	plug := submitN(t, d, 1)
	<-gate.entered
	before := runtime.NumGoroutine()
	tks := submitN(t, d, n)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d outstanding tickets grew the process from %d to %d goroutines", n, before, after)
	}
	gate.open()
	for _, tk := range append(plug, tks...) {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionBurstRunsOneTicketPerEngineRun bursts tickets of distinct
// row counts onto one held replica: every ticket becomes one engine run
// carrying exactly its own rows, in submission order. That one run
// carries one ticket is what lets the replica's engine time, divided by
// the ticket's rows, stand as its per-row service time.
func TestAdmissionBurstRunsOneTicketPerEngineRun(t *testing.T) {
	const n = 12
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, n, gate)
	ins := make([]*tensor.Tensor, n)
	tks := make([]*Ticket, n)
	for i := range tks {
		ins[i] = tensor.New(tensor.FP32, i+1, 1, 16, 16)
		tk, err := d.Submit(map[string]*tensor.Tensor{d.inputNames[0]: ins[i]})
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	<-gate.entered // one running, n-1 queued behind it
	gate.open()
	for i, tk := range tks {
		outs, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if outs[d.inputNames[0]] != ins[i] {
			t.Errorf("ticket %d resolved with another ticket's rows", i)
		}
	}
	gate.mu.Lock()
	seen := gate.seen
	gate.mu.Unlock()
	if len(seen) != n {
		t.Fatalf("%d tickets became %d engine runs", n, len(seen))
	}
	for i, call := range seen {
		if len(call) != 1 || call[0][d.inputNames[0]] != ins[i] {
			t.Fatalf("engine run %d does not carry exactly ticket %d's %d rows", i, i, i+1)
		}
	}
	if st := d.Stats(); st.Submitted != n || st.Completed != n || st.Rejected != 0 {
		t.Errorf("submitted %d completed %d rejected %d, want %d %d 0", st.Submitted, st.Completed, st.Rejected, n, n)
	}
}

// TestCloseResolvesQueuedTickets closes a deployment with tickets queued
// behind a held engine: the running one completes, the queued ones
// resolve with ErrClosed, and every one of them names its replica.
func TestCloseResolvesQueuedTickets(t *testing.T) {
	gate := newGate(time.Millisecond, 5)
	d := gatedDeployment(t, 8, gate)
	tks := submitN(t, d, 4)
	<-gate.entered
	closed := make(chan struct{})
	go func() { d.close(); close(closed) }()
	// close is now parked on the held dispatcher. A closed server refuses
	// even a dead context with ErrClosed, so this probe queues nothing and
	// turns true exactly when the drain is armed.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	srv := d.replicas[0].server
	for !errors.Is(srv.Submit(dead, nil, nil), microserver.ErrClosed) {
		runtime.Gosched()
	}
	gate.open()
	<-closed
	for i, tk := range tks {
		if !resolved(tk) {
			t.Fatalf("ticket %d unresolved after close returned", i)
		}
		_, err := tk.Wait()
		if i == 0 && err != nil {
			t.Errorf("running ticket failed across close: %v", err)
		}
		if i > 0 && !errors.Is(err, ErrClosed) {
			t.Errorf("queued ticket %d resolved with %v, want ErrClosed", i, err)
		}
		if tk.Replica() != d.replicas[0] {
			t.Errorf("ticket %d names replica %v", i, tk.Replica())
		}
	}
	if _, err := d.Submit(nil); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close returned %v, want ErrClosed", err)
	}
	st := d.Stats()
	if st.Submitted != 4 || st.Completed != 4 || st.Rejected != 0 {
		t.Errorf("submitted %d completed %d rejected %d, want 4 4 0", st.Submitted, st.Completed, st.Rejected)
	}
	// Drained tickets never ran: not a replica fault, not a service sample.
	if rs := st.Replicas[0]; rs.Served != 1 || rs.Failed != 0 || rs.Shed != 3 || rs.Inflight != 0 {
		t.Errorf("replica served %d failed %d shed %d inflight %d, want 1 0 3 0", rs.Served, rs.Failed, rs.Shed, rs.Inflight)
	}
}

// TestSaturatedReplicaDoesNotBlockRouting holds one replica shut with a
// backlog: the ticket whose cost favours the other replica is served
// while the first is still held.
func TestSaturatedReplicaDoesNotBlockRouting(t *testing.T) {
	fast := newGate(time.Millisecond, 5)
	slow := newGate(3*time.Millisecond, 40)
	slow.open()
	d := gatedDeployment(t, 8, fast, slow)
	// Costs 1, 2, 3 ms on the fast replica against 3 ms on the slow one
	// (the tie goes to the lower MaxW), then 4 ms against 3.
	backlog := submitN(t, d, 3)
	<-fast.entered
	tk := submitN(t, d, 1)[0]
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if tk.Replica() != d.replicas[1] {
		t.Errorf("fourth ticket ran on replica %d, want the idle one", tk.Replica().ID())
	}
	for i, b := range backlog {
		if resolved(b) {
			t.Errorf("backlog ticket %d resolved while its replica was held", i)
		}
	}
	fast.open()
	for _, b := range backlog {
		if _, err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		if b.Replica() != d.replicas[0] {
			t.Errorf("backlog ticket ran on replica %d, want 0", b.Replica().ID())
		}
	}
}

// TestBurstFollowsEstimate pins the routing property where it is
// deterministic: with every replica held shut nothing completes, so a
// burst is placed on the fixed estimates alone and must split exactly as
// the greedy rule says, each ticket to the lowest (inflight+1) x
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
	// counters, one ticket at a time.
	want := make([]int64, len(ests))
	for n := 0; n < burst; n++ {
		want[cheapest(len(ests),
			func(i int) float64 { return float64(want[i]+1) * float64(ests[i]) },
			func(i int) float64 { return gates[i].maxW })]++
	}
	tks := submitN(t, d, burst)
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
	for _, tk := range tks {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}
