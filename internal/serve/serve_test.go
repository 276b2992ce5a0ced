package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vedliot/internal/artifact"
	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// armFleet builds a chassis with n host-CPU modules.
func armFleet(t testing.TB, n int) *microserver.Chassis {
	t.Helper()
	c := microserver.NewURECS()
	for slot := 0; slot < n; slot++ {
		m, err := microserver.FindModule("SMARC ARM")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func testModel() *nn.Graph {
	return nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 21})
}

func testInput(seed int) *tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range in.F32 {
		in.F32[i] = float32((i*5+seed*11)%23)/23 - 0.5
	}
	return in
}

// packed registers g, packed in memory with no schema, in a fresh
// registry, the way vedliot-serve registers a zoo model.
func packed(t testing.TB, g *nn.Graph) *cluster.Registry {
	t.Helper()
	m := &artifact.Model{Graph: g}
	if _, err := m.Encode(); err != nil {
		t.Fatal(err)
	}
	reg := cluster.NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	return reg
}

// deployGraph deploys g, packed in memory, through DeployArtifact on
// every module of the chassis; the scheduler closes when the test ends.
func deployGraph(t testing.TB, c *microserver.Chassis, cfg cluster.Config, g *nn.Graph) (*cluster.Scheduler, *cluster.Deployment) {
	t.Helper()
	cfg.Registry = packed(t, g)
	sched := cluster.NewScheduler(c, cfg)
	t.Cleanup(sched.Close)
	dep, err := sched.DeployArtifact(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	return sched, dep
}

// startServer deploys the test model on n replicas and listens on a
// loopback socket.
func startServer(t *testing.T, n int, clCfg cluster.Config, cfg Config) (*Server, *cluster.Scheduler, *nn.Graph) {
	t.Helper()
	g := testModel()
	sched, _ := deployGraph(t, armFleet(t, n), clCfg, g)
	srv, err := Listen("127.0.0.1:0", sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sched, g
}

func TestTensorMapRoundTrip(t *testing.T) {
	ins := map[string]*tensor.Tensor{
		"a": testInput(1),
		"z": tensor.MustFromSlice([]float32{1.5, -2.25, 3e-9}, 3),
	}
	b := beginFrame(TypeRequest, 42, 64)
	b = appendString(b, "model-x")
	b, err := appendTensorMap(b, ins)
	if err != nil {
		t.Fatal(err)
	}
	b = finishFrame(b)

	fr := newFrameReader(bytes.NewReader(b), 0)
	f, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != TypeRequest || f.id != 42 {
		t.Fatalf("frame header (%d, %d), want (%d, 42)", f.typ, f.id, TypeRequest)
	}
	model, err := f.body.str()
	if err != nil || model != "model-x" {
		t.Fatalf("model %q (%v), want model-x", model, err)
	}
	got, err := f.body.tensorMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ins) {
		t.Fatalf("decoded %d tensors, want %d", len(got), len(ins))
	}
	for name, want := range ins {
		d, _ := tensor.MaxAbsDiff(want, got[name])
		if d != 0 {
			t.Errorf("tensor %q diverges by %g after round trip", name, d)
		}
		if !want.Shape.Equal(got[name].Shape) {
			t.Errorf("tensor %q shape %v, want %v", name, got[name].Shape, want.Shape)
		}
	}
}

func TestFrameReaderRejectsOversizedFrame(t *testing.T) {
	b := beginFrame(TypeRequest, 1, 256)
	b = append(b, make([]byte, 128)...)
	b = finishFrame(b)
	fr := newFrameReader(bytes.NewReader(b), 64)
	if _, err := fr.next(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestEndToEndParity(t *testing.T) {
	srv, _, g := startServer(t, 2, cluster.Config{QueueDepth: 64}, Config{})
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Tenant() != DefaultTenant {
		t.Errorf("open-mode tenant %q, want %q", cl.Tenant(), DefaultTenant)
	}
	for seed := 0; seed < 5; seed++ {
		in := testInput(seed)
		want, err := eng.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in})
		if err != nil {
			t.Fatal(err)
		}
		got := outs[g.Outputs[0]]
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("seed %d: socket result diverges from engine by %g", seed, d)
		}
	}
	if st := srv.Stats(); st.Requests < 5 || st.Accepted < 1 {
		t.Errorf("server stats missed traffic: %+v", st)
	}
}

// wrapBackend compiles the host engine and hands it to a test's
// engine double.
type wrapBackend func(inference.Executable) inference.Executable

func (wrapBackend) Name() string { return "wrapped" }

func (w wrapBackend) Compile(g *nn.Graph) (inference.Executable, error) {
	eng, err := inference.Compile(g)
	if err != nil {
		return nil, err
	}
	return w(eng), nil
}

// serveWrapped puts g behind a socket on one host-CPU replica whose
// engine is wrap's double: the double reaches the replica through the
// registry's plan cache, seeded under the key an artifact deployment on
// the host engine reads. Listener and scheduler close when the test
// ends, if it has not closed them.
func serveWrapped(t *testing.T, g *nn.Graph, wrap wrapBackend, cfg Config) (*Server, *cluster.Scheduler, *cluster.Deployment) {
	t.Helper()
	reg := packed(t, g)
	m, err := reg.Get(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Plans().Compile(m.Digest+"|"+inference.CPUBackend{}.Name(), wrap, g); err != nil {
		t.Fatal(err)
	}
	sched := cluster.NewScheduler(armFleet(t, 1), cluster.Config{Registry: reg})
	t.Cleanup(sched.Close)
	d, err := sched.DeployArtifact(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sched, d
}

// poisonExe panics, the way a kernel fault would, on a run whose input
// holds the poison value; every other run is the engine's.
type poisonExe struct{ inference.Executable }

const poison = 1e9

func (e poisonExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	for _, t := range in {
		if slices.Contains(t.F32, poison) {
			panic("kernel fault")
		}
	}
	return e.Executable.Run(in)
}

// TestSocketRecoversReplicaPanic puts a replica whose engine panics on
// one input behind the socket: the poisoned request is answered with
// StatusError, the fleet counts one failure and keeps its accounting,
// and the same connection goes on serving engine-exact replies.
func TestSocketRecoversReplicaPanic(t *testing.T) {
	g := testModel()
	srv, _, d := serveWrapped(t, g, func(e inference.Executable) inference.Executable { return poisonExe{e} },
		Config{Batch: BatchPolicy{MaxBatch: 1}})
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	bad := testInput(0)
	bad.F32[0] = poison
	_, err = cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: bad})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("status %d", StatusError)) {
		t.Fatalf("poisoned request returned %v, want a StatusError reply", err)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(1)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in})
	if err != nil {
		t.Fatalf("the connection stopped serving after the panic: %v", err)
	}
	if diff, _ := tensor.MaxAbsDiff(want, outs[g.Outputs[0]]); diff != 0 {
		t.Errorf("reply after the panic diverges from the engine by %g", diff)
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Errorf("server counted %d engine errors, want 1", st.Errors)
	}
	st := d.Stats()
	if st.Replicas[0].Failed != 1 || st.Submitted != st.Completed+st.Rejected {
		t.Errorf("fleet stats after the panic: %+v", st)
	}
}

func TestAPIKeyAuth(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 64}, Config{
		Keys: map[string]string{"sk-alpha": "alpha", "sk-beta": "beta"},
	})
	if _, err := Dial(srv.Addr(), "sk-wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong key dialed in: %v", err)
	}
	cl, err := Dial(srv.Addr(), "sk-alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Tenant() != "alpha" {
		t.Errorf("tenant %q, want alpha", cl.Tenant())
	}
	in := testInput(0)
	if _, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in}); err != nil {
		t.Fatalf("authed request failed: %v", err)
	}
	if st := srv.Stats(); st.Unauthorized < 1 {
		t.Errorf("unauthorized dial not counted: %+v", st)
	}
}

// TestOverloadRetryAfter drives an open-loop burst at a single-replica
// fleet with depth-1 queues: part of the burst must come back as
// RetryAfterError with the server's hint, and a shed submission must
// leave the coalescing counters where they were.
func TestOverloadRetryAfter(t *testing.T) {
	srv, _, g := startServer(t, 1,
		cluster.Config{QueueDepth: 1},
		Config{Batch: BatchPolicy{MaxBatch: 1}},
	)
	pool, err := DialPool(srv.Addr(), "", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ins := map[string]*tensor.Tensor{g.Inputs[0]: testInput(0)}
	const burst = 64
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pool.InferCtx(context.Background(), g.Name, ins)
		}(i)
	}
	wg.Wait()
	shed, ok := 0, 0
	for i, err := range errs {
		var ra *RetryAfterError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &ra):
			shed++
			if ra.After != RetryAfter {
				t.Errorf("request %d: retry hint %v, want %v", i, ra.After, RetryAfter)
			}
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	if shed == 0 {
		t.Error("saturated burst shed nothing over the socket")
	}
	if ok == 0 {
		t.Error("saturated burst completed nothing")
	}
	st := srv.Stats()
	if st.Overloaded != int64(shed) {
		t.Errorf("server counted %d overloaded, clients saw %d", st.Overloaded, shed)
	}
	if st.Batches != int64(ok) || st.BatchedRows != int64(ok) {
		t.Errorf("server counted %d rows over %d submissions, the scheduler admitted %d single-row ones", st.BatchedRows, st.Batches, ok)
	}
}

// TestBurstShedCloseMidBurst pins the satellite: an open-loop burst
// against bounded queues sheds without deadlock even when the server
// and scheduler close mid-burst, and every request resolves.
func TestBurstShedCloseMidBurst(t *testing.T) {
	g := testModel()
	sched, _ := deployGraph(t, armFleet(t, 1), cluster.Config{QueueDepth: 2}, g)
	srv, err := Listen("127.0.0.1:0", sched, Config{Batch: BatchPolicy{MaxBatch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := DialPool(srv.Addr(), "", 4)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: testInput(0)}
	const burst = 96
	var wg sync.WaitGroup
	resolved := make([]bool, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := pool.InferCtx(ctx, g.Name, ins)
			resolved[i] = !errors.Is(err, context.DeadlineExceeded)
		}(i)
	}
	// Sever everything while the burst is in flight.
	time.Sleep(2 * time.Millisecond)
	srv.Close()
	sched.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("burst deadlocked across Close")
	}
	pool.Close()
	for i, r := range resolved {
		if !r {
			t.Errorf("request %d hit its deadline instead of resolving", i)
		}
	}
}

// TestBatcherCoalescesWithParity floods a batching server from many
// connections and checks (a) results stay bitwise-identical to the
// reference engine and (b) the server actually coalesced rows.
func TestBatcherCoalescesWithParity(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 256},
		Config{Batch: BatchPolicy{MaxBatch: 16, MaxDelay: 2 * time.Millisecond}})
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 8
	want := make([]*tensor.Tensor, seeds)
	for s := 0; s < seeds; s++ {
		if want[s], err = eng.RunSingle(testInput(s)); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := DialPool(srv.Addr(), "", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const calls = 160
	var wg sync.WaitGroup
	errCh := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := i % seeds
			outs, err := pool.InferCtx(context.Background(), g.Name,
				map[string]*tensor.Tensor{g.Inputs[0]: testInput(s)})
			if err != nil {
				errCh <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if d, _ := tensor.MaxAbsDiff(want[s], outs[g.Outputs[0]]); d != 0 {
				errCh <- fmt.Errorf("call %d diverges by %g through the batcher", i, d)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Batches == 0 || st.BatchedRows != calls {
		t.Fatalf("batch accounting off: %+v", st)
	}
	if st.MeanBatch <= 1.2 {
		t.Errorf("mean batch %.2f under concurrent flood, want > 1.2", st.MeanBatch)
	}
}

// TestBatcherPerDeployment: the front door keeps one batcher per
// (tenant, deployment), so the empty name of a single-model fleet and
// the model's own name share one batcher, its coalescing and its
// in-flight guard, while another tenant gets its own.
func TestBatcherPerDeployment(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{}, Config{})
	resolve := func(tenant, model string) *batcher {
		t.Helper()
		b, err := srv.batcherFor(tenant, model)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	named := resolve(DefaultTenant, g.Name)
	for _, model := range []string{"", g.Name, ""} {
		if resolve(DefaultTenant, model) != named {
			t.Errorf("model %q resolved another batcher than the model's name did", model)
		}
	}
	other := resolve("tenant-b", "")
	if other == named {
		t.Error("two tenants share one batcher")
	}
	if resolve("tenant-b", g.Name) != other {
		t.Error(`another tenant's empty name and model name got two batchers`)
	}
	if _, err := srv.batcherFor(DefaultTenant, "nope"); err == nil {
		t.Error("an unknown model resolved a batcher")
	}
}

// TestBatcherRefusesIncompatibleShapes mixes batch sizes: requests with
// different leading dims stack, a different trailing shape is answered
// BadRequest at the door and counts there, not as an engine error.
func TestBatcherRefusesIncompatibleShapes(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 64},
		Config{Batch: BatchPolicy{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}})
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A batch-3 request through the batcher: rows survive the round trip.
	in3 := tensor.New(tensor.FP32, 3, 1, 16, 16)
	for i := range in3.F32 {
		in3.F32[i] = float32(i%7) / 7
	}
	outs, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in3})
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[g.Outputs[0]].Shape[0]; got != 3 {
		t.Errorf("batch-3 request returned %d rows", got)
	}
	// A wrong trailing shape is refused, not stacked into others.
	bad := tensor.New(tensor.FP32, 1, 1, 8, 8)
	_, err = cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: bad})
	if want := fmt.Sprintf("status %d", StatusBadRequest); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("mis-shaped input answered %v, want a reply with %s", err, want)
	}
	if st := srv.Stats(); st.BadRequest != 1 || st.Errors != 0 {
		t.Errorf("mis-shaped input counted as %d bad requests and %d errors, want 1 and 0", st.BadRequest, st.Errors)
	}
}

// gateFleet is a held-shut fleet double, the two calls a batcher makes:
// every submission is recorded and stays in flight until the test opens
// it, and Idle reports exactly that, so batches and backlogs are formed
// by holding a gate, not by wall clock.
type gateFleet struct {
	mu       sync.Mutex
	inflight int
	// owned marks the replica busy with work that is not this batcher's
	// (another tenant's), so no completion of its own will ever come.
	owned bool
	// enter, when set, blocks each SubmitCtx before the submission
	// becomes visible to Idle: the window the batcher has to cover.
	enter chan struct{}
	// subs receives every submission, in order.
	subs chan *gateSubmission
}

func newGateFleet() *gateFleet { return &gateFleet{subs: make(chan *gateSubmission, 64)} }

func (f *gateFleet) Idle() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inflight == 0 && !f.owned
}

func (f *gateFleet) SubmitCtx(reqs []*microserver.Request, done func()) error {
	if f.enter != nil {
		<-f.enter
	}
	f.mu.Lock()
	f.inflight++
	f.mu.Unlock()
	f.subs <- &gateSubmission{fleet: f, reqs: reqs, done: done}
	return nil
}

// submissions reports how many submissions are waiting to be read.
func (f *gateFleet) submissions() int { return len(f.subs) }

// gateSubmission echoes each record's inputs as its outputs once
// opened, so each reply identifies the rows it was given.
type gateSubmission struct {
	fleet *gateFleet
	reqs  []*microserver.Request
	done  func()
}

// open completes the submission on the calling goroutine in the order a
// replica does: the replica is free, then the submission's done runs,
// then each record's own.
func (s *gateSubmission) open() {
	s.fleet.mu.Lock()
	s.fleet.inflight--
	s.fleet.mu.Unlock()
	s.done()
	for _, q := range s.reqs {
		q.Done(q.Ins, nil)
	}
}

// marks returns the first element of every record of a submission: the
// request ids it carries, in arrival order.
func (s *gateSubmission) marks() []int {
	ids := make([]int, len(s.reqs))
	for i, q := range s.reqs {
		ids[i] = int(q.Ins["x"].F32[0])
	}
	return ids
}

// harnessWidth is the per-sample width of input "x", the one input the
// harness's batcher declares.
const harnessWidth = 4

// batcherHarness drives one batcher over a gateFleet. Request i is one
// row of width floats filled with i; replies are checked to be the
// request's own row.
type batcherHarness struct {
	t     *testing.T
	fleet *gateFleet
	stats batchStats
	b     *batcher
	wg    sync.WaitGroup
}

func newBatcherHarness(t *testing.T, policy BatchPolicy) *batcherHarness {
	h := &batcherHarness{t: t, fleet: newGateFleet()}
	h.b = newBatcher(h.fleet, []string{"x"}, []tensor.Shape{{harnessWidth}}, policy, &h.stats)
	return h
}

func (h *batcherHarness) add(id int) {
	in := tensor.New(tensor.FP32, 1, harnessWidth)
	for i := range in.F32 {
		in.F32[i] = float32(id)
	}
	h.wg.Add(1)
	h.b.add(&microserver.Request{Ctx: context.Background(), Ins: map[string]*tensor.Tensor{"x": in}, Done: func(outs map[string]*tensor.Tensor, err error) {
		defer h.wg.Done()
		if err != nil {
			h.t.Errorf("request %d: %v", id, err)
			return
		}
		if y := outs["x"]; y == nil || !y.Shape.Equal(tensor.Shape{1, harnessWidth}) || y.F32[0] != float32(id) {
			h.t.Errorf("request %d got %v, want its own row back", id, y)
		}
	}})
}

// heldTimer snapshots what waits in the batcher: members, and the
// MaxDelay timer (nil while nothing is held).
func (h *batcherHarness) heldTimer() (members int, timer *time.Timer) {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	return len(h.b.pending), h.b.timer
}

// held reports the members waiting in the batcher and whether the
// MaxDelay timer is armed.
func (h *batcherHarness) held() (members int, armed bool) {
	members, timer := h.heldTimer()
	return members, timer != nil
}

// next returns the next submission, which must carry exactly these
// request ids in this order.
func (h *batcherHarness) next(want ...int) *gateSubmission {
	h.t.Helper()
	tk := <-h.fleet.subs
	if got := tk.marks(); fmt.Sprint(got) != fmt.Sprint(want) {
		h.t.Fatalf("submission carries requests %v, want %v", got, want)
	}
	return tk
}

// TestBatcherCapacityRule pins the front-door rule on the batcher
// itself, against a held-shut fleet: a request is submitted from add
// while the routed replica is idle, and held only while it is busy,
// until a completion of the batcher's own, MaxBatch rows or MaxDelay.
func TestBatcherCapacityRule(t *testing.T) {
	never := BatchPolicy{MaxBatch: 8, MaxDelay: time.Hour}

	// An idle fleet: every request is submitted inside add, one
	// submission each, and no timer is ever armed.
	t.Run("idle", func(t *testing.T) {
		h := newBatcherHarness(t, never)
		const n = 6
		for i := 0; i < n; i++ {
			h.add(i)
			if got := h.fleet.submissions(); got != 1 {
				t.Fatalf("request %d: %d submissions when add returned, want it submitted from add", i, got)
			}
			if members, armed := h.held(); members != 0 || armed {
				t.Fatalf("request %d: %d members held, timer armed %v; an idle fleet holds nothing", i, members, armed)
			}
			h.next(i).open()
			h.wg.Wait()
		}
		if got := h.stats.batches.Load(); got != n {
			t.Errorf("%d submissions for %d requests on an idle fleet, want one each", got, n)
		}
	})

	// A replica held shut: later requests accumulate, and opening it
	// yields exactly one submission with all of them in arrival order.
	t.Run("busy", func(t *testing.T) {
		h := newBatcherHarness(t, never)
		h.add(0)
		first := h.next(0)
		for i := 1; i <= 5; i++ {
			h.add(i)
		}
		if members, armed := h.held(); members != 5 || !armed || h.fleet.submissions() != 0 {
			t.Fatalf("%d held, armed %v, %d submitted; want 5 held behind the busy replica under a timer",
				members, armed, h.fleet.submissions())
		}
		first.open()
		second := h.next(1, 2, 3, 4, 5)
		if members, armed := h.held(); members != 0 || armed {
			t.Errorf("%d held, armed %v after the held batch left; its timer must be stopped", members, armed)
		}
		second.open()
		h.wg.Wait()
		if batches, rows := h.stats.batches.Load(), h.stats.rows.Load(); batches != 2 || rows != 6 {
			t.Errorf("%d rows in %d submissions, want 6 in 2", rows, batches)
		}
	})

	// MaxBatch rows while held: the batch goes by count, replica still
	// shut, and the next request starts a new held batch.
	t.Run("count", func(t *testing.T) {
		h := newBatcherHarness(t, BatchPolicy{MaxBatch: 4, MaxDelay: time.Hour})
		h.add(0)
		first := h.next(0)
		for i := 1; i <= 5; i++ {
			h.add(i)
		}
		full := h.next(1, 2, 3, 4)
		if members, armed := h.held(); members != 1 || !armed {
			t.Errorf("%d held, armed %v; want request 5 alone under a fresh timer", members, armed)
		}
		first.open()
		last := h.next(5)
		full.open()
		last.open()
		h.wg.Wait()
	})

	// Held with nothing of its own in flight (another tenant's batcher
	// owns the replica): no completion will release it, so it goes at
	// MaxDelay, and not before.
	t.Run("maxdelay", func(t *testing.T) {
		const delay = 30 * time.Millisecond
		h := newBatcherHarness(t, BatchPolicy{MaxBatch: 8, MaxDelay: delay})
		h.fleet.owned = true
		start := time.Now()
		h.add(0)
		h.add(1)
		if members, armed := h.held(); members != 2 || !armed || h.fleet.submissions() != 0 {
			t.Fatalf("%d held, armed %v, %d submitted; want both held under the timer",
				members, armed, h.fleet.submissions())
		}
		tk := h.next(0, 1)
		if waited := time.Since(start); waited < delay {
			t.Errorf("held batch left after %v, before MaxDelay %v", waited, delay)
		}
		tk.open()
		h.wg.Wait()
	})

	// A request the model's signature refuses is answered inside add and
	// leaves the held batch and its timer as they were.
	t.Run("shape", func(t *testing.T) {
		h := newBatcherHarness(t, never)
		h.add(0)
		first := h.next(0)
		h.add(1)
		h.add(2)
		_, timer := h.heldTimer()
		var refusal error
		h.b.add(&microserver.Request{Ctx: context.Background(), Ins: map[string]*tensor.Tensor{"x": tensor.New(tensor.FP32, 1, harnessWidth+2)},
			Done: func(_ map[string]*tensor.Tensor, err error) { refusal = err }})
		if !errors.Is(refusal, inference.ErrBadInput) {
			t.Errorf("mis-shaped request answered %v inside add, want inference.ErrBadInput", refusal)
		}
		if members, now := h.heldTimer(); members != 2 || now != timer || timer == nil || h.fleet.submissions() != 0 {
			t.Errorf("%d held, timer %p (was %p), %d submitted; a refused request must leave the held batch as it was",
				members, now, timer, h.fleet.submissions())
		}
		first.open()
		h.next(1, 2).open()
		h.wg.Wait()
		if batches, rows := h.stats.batches.Load(), h.stats.rows.Load(); batches != 2 || rows != 3 {
			t.Errorf("%d rows in %d submissions, want 3 in 2: the refused request counts nowhere", rows, batches)
		}
	})

	// N concurrent adds against one idle replica, the submission not yet
	// visible to the router: one batch of 1 in flight, the rest held.
	t.Run("concurrent", func(t *testing.T) {
		h := newBatcherHarness(t, BatchPolicy{MaxBatch: 64, MaxDelay: time.Hour})
		h.fleet.enter = make(chan struct{})
		const n = 16
		returned := make(chan struct{}, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				h.add(i)
				returned <- struct{}{}
			}(i)
		}
		// Every add but the one inside SubmitCtx returns: they held.
		for i := 0; i < n-1; i++ {
			<-returned
		}
		if members, armed := h.held(); members != n-1 || !armed {
			t.Fatalf("%d held, armed %v with one submission entering; want %d held", members, armed, n-1)
		}
		close(h.fleet.enter)
		<-returned
		first := <-h.fleet.subs
		if got := first.marks(); len(got) != 1 {
			t.Fatalf("first submission carries %v, want one request", got)
		}
		if h.fleet.submissions() != 0 {
			t.Fatalf("a second submission entered while the replica was busy")
		}
		first.open()
		second := <-h.fleet.subs
		if got := second.marks(); len(got) != n-1 {
			t.Errorf("held batch carries %d requests, want %d", len(got), n-1)
		}
		second.open()
		h.wg.Wait()
		if batches, rows := h.stats.batches.Load(), h.stats.rows.Load(); batches != 2 || rows != n {
			t.Errorf("%d rows in %d submissions, want %d in 2", rows, batches, n)
		}
	})
}

// TestFrontDoorSpawnsNoGoroutines: batches in flight are completions
// the fleet holds, not goroutines parked on them (the front door's
// counterpart of cluster's TestAdmissionSpawnsNoGoroutines).
func TestFrontDoorSpawnsNoGoroutines(t *testing.T) {
	const n = 48
	h := newBatcherHarness(t, BatchPolicy{MaxBatch: 1, MaxDelay: time.Hour})
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		h.add(i)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d batches in flight grew the process from %d to %d goroutines", n, before, after)
	}
	for i := 0; i < n; i++ {
		h.next(i).open()
	}
	h.wg.Wait()
}

func TestHTTPAdapter(t *testing.T) {
	saved := maxFrame
	t.Cleanup(func() { maxFrame = saved })
	maxFrame = 1 << 16
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 64},
		Config{Keys: map[string]string{"sk-h": "web"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	in := testInput(2)
	body, _ := json.Marshal(HTTPInferRequest{
		Model:  g.Name,
		Inputs: map[string]HTTPTensor{g.Inputs[0]: {Shape: in.Shape, Data: in.F32}},
	})

	// No key: 401.
	req, _ := newJSONRequest(ts.URL+"/v1/infer", body, "")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Errorf("keyless infer got %d, want 401", resp.StatusCode)
	}

	// Good key: 200 with outputs.
	req, _ = newJSONRequest(ts.URL+"/v1/infer", body, "sk-h")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("infer got %d, want 200", resp.StatusCode)
	}
	var out HTTPInferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ht, ok := out.Outputs[g.Outputs[0]]
	if !ok || len(ht.Data) == 0 {
		t.Fatalf("response missing output %q: %+v", g.Outputs[0], out)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.MustFromSlice(ht.Data, ht.Shape...)
	if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("HTTP result diverges from engine by %g", d)
	}

	// Inputs the model's signature refuses: 400, counted as a bad request.
	misshaped, _ := json.Marshal(HTTPInferRequest{
		Model:  g.Name,
		Inputs: map[string]HTTPTensor{g.Inputs[0]: {Shape: []int{1, 1, 8, 8}, Data: make([]float32, 64)}},
	})
	req, _ = newJSONRequest(ts.URL+"/v1/infer", misshaped, "sk-h")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := srv.Stats(); resp.StatusCode != http.StatusBadRequest || st.BadRequest != 1 || st.Errors != 0 {
		t.Errorf("mis-shaped input got %d with %d bad requests and %d errors counted, want 400, 1 and 0",
			resp.StatusCode, st.BadRequest, st.Errors)
	}

	// An undeclared input whose shape describes no data (a product that
	// wraps to its four floats, negative dimensions) beside a declared
	// input that alone would be served, and a served body with a second
	// request after it: 400, counted as a bad request.
	var hostile [][]byte
	for _, shape := range [][]int{{4611686018427387905, 4}, {-2, -2}} {
		b, _ := json.Marshal(HTTPInferRequest{Model: g.Name, Inputs: map[string]HTTPTensor{
			g.Inputs[0]: {Shape: in.Shape, Data: in.F32},
			"extra":     {Shape: shape, Data: []float32{1, 2, 3, 4}},
		}})
		hostile = append(hostile, b)
	}
	hostile = append(hostile, append(append([]byte(nil), body...), body...))
	for _, b := range hostile {
		bad := srv.Stats().BadRequest
		req, _ = newJSONRequest(ts.URL+"/v1/infer", b, "sk-h")
		resp, err = ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := srv.Stats().BadRequest; resp.StatusCode != http.StatusBadRequest || got != bad+1 {
			t.Errorf("%.80s... got %d and moved BadRequest %d -> %d, want 400 and one more",
				b, resp.StatusCode, bad, got)
		}
	}

	// A body past maxFrame: 413, counted as a bad request, never decoded
	// to the end.
	big, _ := json.Marshal(HTTPInferRequest{
		Model:  g.Name,
		Inputs: map[string]HTTPTensor{g.Inputs[0]: {Shape: []int{1, maxFrame}, Data: make([]float32, maxFrame)}},
	})
	bad := srv.Stats().BadRequest
	req, _ = newJSONRequest(ts.URL+"/v1/infer", big, "sk-h")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body against a %d-byte bound got %d, want 413", len(big), maxFrame, resp.StatusCode)
	}
	if got := srv.Stats().BadRequest; got != bad+1 {
		t.Errorf("oversized body moved BadRequest from %d to %d, want one more", bad, got)
	}

	// Model list includes the deployment.
	mresp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models struct {
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(models.Models) != 1 || models.Models[0] != g.Name {
		t.Errorf("models %v, want [%s]", models.Models, g.Name)
	}

	// Stats report the traffic.
	sresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Requests < 1 || st.Unauthorized < 1 {
		t.Errorf("stats missed HTTP traffic: %+v", st)
	}
}

// TestRunClosedLoopOverSocket drives the load generator end to end over
// a real socket and checks the accounting adds up.
func TestRunClosedLoopOverSocket(t *testing.T) {
	srv, _, g := startServer(t, 2, cluster.Config{QueueDepth: 512},
		Config{Batch: BatchPolicy{MaxBatch: 32, MaxDelay: time.Millisecond}})
	pool, err := DialPool(srv.Addr(), "", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, err := RunClosedLoop(pool, LoadConfig{
		Model: g.Name, Clients: 64, RequestsPerClient: 3,
		Think: 2 * time.Millisecond, SLO: time.Second,
		Inputs: func(i int) map[string]*tensor.Tensor {
			return map[string]*tensor.Tensor{g.Inputs[0]: testInput(i)}
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 64*3 {
		t.Errorf("requests %d, want %d", res.Requests, 64*3)
	}
	if res.Completed+res.Shed+res.Failed != res.Requests {
		t.Errorf("accounting broken: %d + %d + %d != %d", res.Completed, res.Shed, res.Failed, res.Requests)
	}
	if res.Failed != 0 {
		t.Errorf("%d hard failures under gentle load", res.Failed)
	}
	if res.Completed == 0 || res.Throughput <= 0 {
		t.Errorf("no completions recorded: %+v", res)
	}
	if res.Latency.P50 <= 0 || res.Latency.P999 < res.Latency.P50 {
		t.Errorf("latency summary inconsistent: %+v", res.Latency)
	}
}

// TestReplayOpenLoopBursts replays a bursty open-loop trace against a
// bounded fleet: sheds happen, nothing deadlocks, accounting holds.
func TestReplayOpenLoopBursts(t *testing.T) {
	srv, _, g := startServer(t, 1,
		cluster.Config{QueueDepth: 2},
		Config{Batch: BatchPolicy{MaxBatch: 1}})
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	trace := cluster.OpenLoopTrace(120, 4000, 3)
	res, err := ReplayOpenLoop(cl, trace, LoadConfig{
		Model: g.Name,
		SLO:   time.Second,
		Inputs: func(i int) map[string]*tensor.Tensor {
			return map[string]*tensor.Tensor{g.Inputs[0]: testInput(i)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Error("bursty replay against bounded queues shed nothing")
	}
	if res.Failed != 0 {
		t.Errorf("%d hard failures in replay", res.Failed)
	}
	if res.Completed+res.Shed != res.Requests {
		t.Errorf("accounting broken: %d + %d != %d", res.Completed, res.Shed, res.Requests)
	}
	if res.SLOViolations < res.Shed {
		t.Errorf("sheds must count as SLO violations: %d < %d", res.SLOViolations, res.Shed)
	}
}

// newJSONRequest builds a POST with an optional X-API-Key header.
func newJSONRequest(url string, body []byte, key string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	return req, nil
}
