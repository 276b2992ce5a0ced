package microserver

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vedliot/internal/accel"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// servedModel serves the gesture model from the host CPU engine.
func servedModel(t *testing.T, cfg ServeConfig) (*Server, *nn.Graph) {
	t.Helper()
	g := gestureGraph()
	exe, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ServeCompiled(g, exe, "cpu-engine", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

// inferSingle is InferMap for a 1-input/1-output graph.
func inferSingle(s *Server, g *nn.Graph, in *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := s.InferMap(map[string]*tensor.Tensor{g.Inputs[0]: in})
	return outs[g.Outputs[0]], err
}

// pending is the test's handle on one submitted record: its own
// result, and what its submission's completion saw.
type pending struct {
	outs    map[string]*tensor.Tensor
	service time.Duration
	rows    int
	err     error
	ready   chan struct{}
}

// Wait blocks until the record's completion has run.
func (p *pending) Wait() (map[string]*tensor.Tensor, error) {
	<-p.ready
	return p.outs, p.err
}

// submit queues one one-record submission and returns its handle; a
// refused Submit fails the test.
func submit(t *testing.T, s *Server, ctx context.Context, ins map[string]*tensor.Tensor) *pending {
	t.Helper()
	return submitMerged(t, s, []context.Context{ctx}, []map[string]*tensor.Tensor{ins})[0]
}

// submitMerged queues one submission of one single-row record per input
// map, record i under ctxs[i], and returns a handle per record; a
// refused Submit fails the test.
func submitMerged(t *testing.T, s *Server, ctxs []context.Context, ins []map[string]*tensor.Tensor) []*pending {
	t.Helper()
	pend := make([]*pending, len(ins))
	reqs := make([]*Request, len(ins))
	for i := range ins {
		p := &pending{ready: make(chan struct{})}
		pend[i] = p
		reqs[i] = &Request{Ctx: ctxs[i], Ins: ins[i], Rows: 1, Done: func(outs map[string]*tensor.Tensor, err error) {
			p.outs, p.err = outs, err
			close(p.ready)
		}}
	}
	// The submission's completion runs before the Done of every record
	// that ran, so such a record's handle sees the service and rows once
	// it has resolved (a dropped record's Done runs first).
	if err := s.Submit(reqs, func(service time.Duration, rows int, _ error) {
		for _, p := range pend {
			p.service, p.rows = service, rows
		}
	}); err != nil {
		t.Fatal(err)
	}
	return pend
}

func gestureInput(seed int) *tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range in.F32 {
		in.F32[i] = float32((i*3+seed*7)%17)/17 - 0.5
	}
	return in
}

func TestServeMatchesDirectEngine(t *testing.T) {
	s, g := servedModel(t, ServeConfig{})
	defer s.Close()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := gestureInput(1)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inferSingle(s, g, in)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("served result diverges by %g", d)
	}
}

// gateExe is the queue tests' inference.Executable double. Every
// Run/RunBatch records the batch it was handed and then blocks until
// the test opens the gate. A test holds the dispatcher inside the engine
// with one request, queues more behind it and opens the gate, so a
// backlog forms by construction and never by wall clock.
type gateExe struct {
	inner   inference.Executable
	release chan struct{}

	mu   sync.Mutex
	cond *sync.Cond
	seen [][]map[string]*tensor.Tensor
}

func (e *gateExe) enter(batch []map[string]*tensor.Tensor) {
	e.mu.Lock()
	e.seen = append(e.seen, batch)
	e.cond.Broadcast()
	e.mu.Unlock()
	<-e.release
}

func (e *gateExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	e.enter([]map[string]*tensor.Tensor{in})
	return e.inner.Run(in)
}

func (e *gateExe) RunBatch(b []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	e.enter(b)
	return e.inner.RunBatch(b)
}

// open releases the held call and lets every later one through.
func (e *gateExe) open() { close(e.release) }

// batches returns every batch the gate has seen, in call order.
func (e *gateExe) batches() [][]map[string]*tensor.Tensor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]map[string]*tensor.Tensor(nil), e.seen...)
}

// wantSizes fails the test unless the gate saw exactly these batch sizes.
func (e *gateExe) wantSizes(t *testing.T, want ...int) {
	t.Helper()
	var got []int
	for _, b := range e.batches() {
		got = append(got, len(b))
	}
	if !slices.Equal(got, want) {
		t.Errorf("engine saw batch sizes %v, want %v", got, want)
	}
}

// saw reports whether the engine was ever handed this input tensor.
func (e *gateExe) saw(in *tensor.Tensor) bool {
	for _, b := range e.batches() {
		for _, ins := range b {
			for _, t := range ins {
				if t == in {
					return true
				}
			}
		}
	}
	return false
}

// gatedServer serves g from behind a shut gate.
func gatedServer(t *testing.T, g *nn.Graph, cfg ServeConfig) (*Server, *gateExe) {
	t.Helper()
	exe, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateExe{inner: exe, release: make(chan struct{})}
	gate.cond = sync.NewCond(&gate.mu)
	s, err := ServeCompiled(g, gate, "gate", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, gate
}

// hold submits one request to an idle gated server and returns once the
// dispatcher is inside the engine with it — the gate's first recorded
// batch. Until gate.open, every Submit that returns has its request
// sitting in the queue.
func hold(t *testing.T, s *Server, gate *gateExe, ins map[string]*tensor.Tensor) *pending {
	t.Helper()
	plug := submit(t, s, context.Background(), ins)
	gate.mu.Lock()
	for len(gate.seen) == 0 {
		gate.cond.Wait()
	}
	gate.mu.Unlock()
	return plug
}

func gestureGraph() *nn.Graph {
	return nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
}

func gestureIns(g *nn.Graph, seed int) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{g.Inputs[0]: gestureInput(seed)}
}

// gestureRequests builds n distinct single-sample requests.
func gestureRequests(g *nn.Graph, n int) []map[string]*tensor.Tensor {
	ins := make([]map[string]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = gestureIns(g, i)
	}
	return ins
}

// submitAll queues one request per input map; with the gate held they
// all sit in s.reqs when it returns.
func submitAll(t *testing.T, s *Server, ins []map[string]*tensor.Tensor) []*pending {
	t.Helper()
	pend := make([]*pending, len(ins))
	for i := range ins {
		pend[i] = submit(t, s, context.Background(), ins[i])
	}
	return pend
}

// TestDispatchRunsQueuedOneAtATimeInOrder pins the worker: submissions
// queued behind a busy engine run one per engine call, in arrival order,
// each record reaching the engine as the caller's own map (the layers
// above find a request again by that identity) and each getting the
// engine-exact result for its own input.
func TestDispatchRunsQueuedOneAtATimeInOrder(t *testing.T) {
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	defer s.Close()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	plug := hold(t, s, gate, gestureIns(g, 0))
	const queued = 11
	ins := gestureRequests(g, queued)
	pend := submitAll(t, s, ins)
	gate.open()
	if _, err := plug.Wait(); err != nil {
		t.Fatal(err)
	}
	for c, p := range pend {
		outs, err := p.Wait()
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		want, err := eng.RunSingle(ins[c][g.Inputs[0]])
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, outs[g.Outputs[0]]); d != 0 {
			t.Errorf("client %d: served result diverges by %g", c, d)
		}
	}
	runs := gate.batches()
	if len(runs) != queued+1 {
		t.Fatalf("engine ran %d times for %d requests", len(runs), queued+1)
	}
	for i, run := range runs[1:] {
		if len(run) != 1 {
			t.Fatalf("engine run %d carried %d requests, want 1", i+1, len(run))
		}
		if reflect.ValueOf(run[0]).Pointer() != reflect.ValueOf(ins[i]).Pointer() {
			t.Fatalf("engine run %d does not carry request %d's own map: arrival order or identity broken", i+1, i)
		}
	}
	if st := s.Stats(); st.Requests != queued+1 || st.Batches != queued+1 {
		t.Errorf("stats recorded %d requests in %d engine runs, want %d in %d", st.Requests, st.Batches, queued+1, queued+1)
	}
}

// TestDispatchLoneRequestRunsAtOnce pins the idle server: a lone request
// reaches the engine while no second request exists — the dispatcher
// does not wait for company.
func TestDispatchLoneRequestRunsAtOnce(t *testing.T) {
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	defer s.Close()
	lone := hold(t, s, gate, gestureIns(g, 1))
	// hold returned, so the engine has the request; nothing else was
	// ever submitted.
	gate.wantSizes(t, 1)
	gate.open()
	if _, err := lone.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Requests != 1 || st.Batches != 1 {
		t.Errorf("stats recorded %d requests in %d dispatches, want 1 in 1", st.Requests, st.Batches)
	}
}

type shapeErr struct{ d float64 }

func (e *shapeErr) Error() string { return "served result diverges" }

// TestServeBadRequestFailsAlone queues a well-formed and a malformed
// request behind a busy engine: only the offender sees the error. A
// zero-row tensor is malformed too (a wire frame with a zero dim decodes
// to one): it is rejected, never answered with an empty success.
func TestServeBadRequestFailsAlone(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  *tensor.Tensor
	}{
		{"wrong channels", tensor.New(tensor.FP32, 1, 3, 16, 16)},
		{"zero batch", tensor.New(tensor.FP32, 0, 1, 16, 16)},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := gestureGraph()
			s, gate := gatedServer(t, g, ServeConfig{})
			defer s.Close()
			plug := hold(t, s, gate, gestureIns(g, 0))
			pend := submitAll(t, s, []map[string]*tensor.Tensor{
				gestureIns(g, 1),
				{g.Inputs[0]: c.bad},
			})
			gate.open()
			if _, err := plug.Wait(); err != nil {
				t.Fatal(err)
			}
			if _, err := pend[0].Wait(); err != nil {
				t.Errorf("well-formed request failed: %v", err)
			}
			if _, err := pend[1].Wait(); err == nil {
				t.Error("malformed request succeeded")
			}
			gate.wantSizes(t, 1, 1, 1)
		})
	}
}

func TestServeClose(t *testing.T) {
	s, g := servedModel(t, ServeConfig{})
	s.Close()
	s.Close() // idempotent
	if _, err := s.InferMap(gestureIns(g, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("InferMap after Close returned %v, want ErrClosed", err)
	}
}

// multiHeadGraph builds a two-output graph (conv features + relu head).
func multiHeadGraph() *nn.Graph {
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 5})
	x := b.Input("input", 1, 8, 8)
	c := b.Conv(x, 1, 2, 3, 1, 1)
	r := b.Act(c, nn.OpReLU)
	return b.Graph(c, r)
}

func TestServeMultiHeadGraph(t *testing.T) {
	g := multiHeadGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	defer s.Close()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 1, 8, 8)
	for i := range in.F32 {
		in.F32[i] = float32(i%7)/7 - 0.5
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: in}
	want, err := eng.Run(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Eight clients queued behind a busy engine, so the full maps flow
	// through the queue.
	plug := hold(t, s, gate, ins)
	const clients = 8
	all := make([]map[string]*tensor.Tensor, clients)
	for c := range all {
		all[c] = ins
	}
	pend := submitAll(t, s, all)
	gate.open()
	for c, p := range append(pend, plug) {
		got, err := p.Wait()
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		if len(got) != len(g.Outputs) {
			t.Fatalf("client %d: %d outputs, want %d", c, len(got), len(g.Outputs))
		}
		for _, name := range g.Outputs {
			if d, _ := tensor.MaxAbsDiff(want[name], got[name]); d != 0 {
				t.Errorf("client %d: output %q diverges by %g", c, name, d)
			}
		}
	}
	gate.wantSizes(t, 1, 1, 1, 1, 1, 1, 1, 1, 1)
}

func TestServeCompiledAccelBackend(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		t.Fatal(err)
	}
	b := accel.NewBackend(dev)
	exe, err := b.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ServeCompiled(g, exe, b.Name(), ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.Backend(), "accel:Xavier NX"; got != want {
		t.Errorf("Backend() = %q, want %q", got, want)
	}
	if s.Executable() != exe {
		t.Error("server does not front the accelerator program it was given")
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := gestureInput(3)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inferSingle(s, g, in)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("accel-served result diverges from host engine by %g", d)
	}
}

// TestServeDrainFailsQueued pins the shutdown drain path: requests
// still queued when Close lands are failed, not executed.
func TestServeDrainFailsQueued(t *testing.T) {
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{QueueDepth: 8})
	// One request is in flight inside the engine, two sit in the queue.
	inflight := hold(t, s, gate, gestureIns(g, 1))
	queued := submitAll(t, s, []map[string]*tensor.Tensor{gestureIns(g, 2), gestureIns(g, 3)})

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Close has marked the server closed once quit is closed; it then
	// blocks in wg.Wait until the held dispatch finishes.
	<-s.quit
	gate.open()
	<-closed

	if _, err := inflight.Wait(); err != nil {
		t.Errorf("in-flight request failed across Close: %v", err)
	}
	for i, p := range queued {
		if _, err := p.Wait(); !errors.Is(err, ErrClosed) {
			t.Errorf("queued request %d resolved with %v after Close, want ErrClosed", i, err)
		}
	}
	gate.wantSizes(t, 1)
	if _, err := s.InferMap(gestureIns(g, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("InferMap after Close returned %v, want ErrClosed", err)
	}
}

// TestServeInferRacingClose hammers InferMap from many goroutines against a
// busy engine while Close lands mid-storm: every call must resolve
// (result or closed error) and the server must shut down cleanly.
func TestServeInferRacingClose(t *testing.T) {
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	plug := hold(t, s, gate, gestureIns(g, 0))
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out, err := s.InferMap(gestureIns(g, c))
			if err == nil && out == nil {
				errs <- &shapeErr{0}
				return
			}
			errs <- err
		}(c)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	gate.open()
	wg.Wait()
	<-closed
	close(errs)
	served, refused := 0, 0
	for err := range errs {
		if err == nil {
			served++
		} else {
			refused++
		}
	}
	if served+refused != clients {
		t.Errorf("%d of %d racing calls unresolved", clients-served-refused, clients)
	}
	if _, err := plug.Wait(); err != nil {
		t.Errorf("request already inside the engine failed across Close: %v", err)
	}
}

func TestServeCompiledSharesOnePlan(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	exe, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// Two servers over one shared compiled plan — the plan-cache
	// deployment shape.
	a, err := ServeCompiled(g, exe, "cpu-engine", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ServeCompiled(g, exe, "cpu-engine", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Executable() != b.Executable() {
		t.Fatal("servers do not share the executable")
	}
	if a.Backend() != "cpu-engine" {
		t.Fatalf("backend name %q", a.Backend())
	}
	in := gestureInput(3)
	want, err := exe.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Server{a, b} {
		got, err := inferSingle(s, g, in)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("served output differs from shared plan by %g", d)
		}
	}
	// Closing one server must not break the other (the plan is shared,
	// never owned).
	a.Close()
	if _, err := inferSingle(b, g, in); err != nil {
		t.Fatalf("second server failed after first closed: %v", err)
	}
}

func TestServeCompiledValidates(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	if _, err := ServeCompiled(g, nil, "cpu-engine", ServeConfig{}); err == nil {
		t.Fatal("nil executable accepted")
	}
	exe, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeCompiled(&nn.Graph{Name: "empty"}, exe, "cpu-engine", ServeConfig{}); err == nil {
		t.Fatal("graph without inputs or outputs accepted")
	}
}

// TestSubmitCancelledBeforeDispatch pins the context path through
// the queue: a request whose context dies while it is still
// queued must resolve with the context error without ever reaching the
// engine, and must not count as a served request.
func TestSubmitCancelledBeforeDispatch(t *testing.T) {
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	defer s.Close()
	plug := hold(t, s, gate, gestureIns(g, 0))

	// A doomed and a live request queue behind the busy engine.
	ctx, cancel := context.WithCancel(context.Background())
	doomedIns, liveIns := gestureIns(g, 1), gestureIns(g, 2)
	doomed := submit(t, s, ctx, doomedIns)
	live := submit(t, s, context.Background(), liveIns)
	cancel()
	gate.open()
	if _, err := doomed.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled request resolved with %v, want context.Canceled", err)
	}
	if _, err := live.Wait(); err != nil {
		t.Errorf("live request failed: %v", err)
	}
	if _, err := plug.Wait(); err != nil {
		t.Fatal(err)
	}
	if gate.saw(doomedIns[g.Inputs[0]]) {
		t.Error("cancelled request reached the engine")
	}
	gate.wantSizes(t, 1, 1)
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Errorf("stats recorded %d cancelled, want 1", st.Cancelled)
	}
	if st.Requests != 2 {
		t.Errorf("stats recorded %d dispatched requests, want 2 (cancelled must not count)", st.Requests)
	}

	// A record whose context is already dead when it is submitted is
	// dropped the same way, on an idle engine too.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := submit(t, s, dead, liveIns).Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("dead-context record resolved with %v, want context.Canceled", err)
	}
	gate.wantSizes(t, 1, 1)
	if st := s.Stats(); st.Cancelled != 2 || st.Requests != 2 {
		t.Errorf("stats %+v, want 2 cancelled and 2 requests", st)
	}
}

// TestDispatchDropsVanishedMember queues one submission of three
// records behind a busy engine, and the caller of the middle one
// vanishes: the submission reaches the engine as one RunBatch of the two
// live records, in order, each gets the engine-exact rows for its own
// input, the vanished one completes with its context's error, and the
// submission's completion sees the two rows that ran.
func TestDispatchDropsVanishedMember(t *testing.T) {
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	defer s.Close()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	plug := hold(t, s, gate, gestureIns(g, 0))
	gone, cancel := context.WithCancel(context.Background())
	ins := gestureRequests(g, 3)
	pend := submitMerged(t, s, []context.Context{context.Background(), gone, context.Background()}, ins)
	cancel()
	gate.open()
	if _, err := plug.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := pend[1].Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("vanished record resolved with %v, want context.Canceled", err)
	}
	for _, c := range []int{0, 2} {
		outs, err := pend[c].Wait()
		if err != nil {
			t.Fatalf("record %d: %v", c, err)
		}
		want, err := eng.RunSingle(ins[c][g.Inputs[0]])
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, outs[g.Outputs[0]]); d != 0 {
			t.Errorf("record %d: served result diverges by %g", c, d)
		}
		if pend[c].rows != 2 {
			t.Errorf("record %d: the submission's completion saw %d rows, want 2", c, pend[c].rows)
		}
	}
	gate.wantSizes(t, 1, 2)
	if run := gate.batches()[1]; reflect.ValueOf(run[0]).Pointer() != reflect.ValueOf(ins[0]).Pointer() ||
		reflect.ValueOf(run[1]).Pointer() != reflect.ValueOf(ins[2]).Pointer() {
		t.Error("the merged run does not carry the live records' own maps in order")
	}
	if st := s.Stats(); st.Requests != 3 || st.Batches != 2 || st.Cancelled != 1 {
		t.Errorf("stats %+v, want 3 requests in 2 engine runs and 1 cancelled", st)
	}
}

// TestDispatchDropsCancelledQueued cancels three queued requests in a
// row: the dispatcher drops each without an engine call, counts every
// one in Cancelled, and moves on to the live request behind them.
func TestDispatchDropsCancelledQueued(t *testing.T) {
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	defer s.Close()
	plug := hold(t, s, gate, gestureIns(g, 0))

	ctx, cancel := context.WithCancel(context.Background())
	var doomed []*pending
	for i := 0; i < 3; i++ {
		doomed = append(doomed, submit(t, s, ctx, gestureIns(g, i)))
	}
	live := submit(t, s, context.Background(), gestureIns(g, 9))
	cancel()
	gate.open()
	for i, p := range doomed {
		if _, err := p.Wait(); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled request %d resolved with %v, want context.Canceled", i, err)
		}
	}
	for _, p := range []*pending{plug, live} {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The three cancelled requests never became an engine call.
	gate.wantSizes(t, 1, 1)
	st := s.Stats()
	if st.Cancelled != 3 || st.Requests != 2 || st.Batches != 2 {
		t.Errorf("stats %+v, want 3 cancelled and 2 requests in 2 engine runs", st)
	}
}

// TestDispatchReportsEngineTime: the service time a completion carries
// is the engine run alone. The plug is held inside the engine, so its
// hold is service; the request queued behind it waits as long, and none
// of that wait is in its service.
func TestDispatchReportsEngineTime(t *testing.T) {
	const held = 30 * time.Millisecond
	g := gestureGraph()
	s, gate := gatedServer(t, g, ServeConfig{})
	defer s.Close()
	plug := hold(t, s, gate, gestureIns(g, 0))
	queued := submit(t, s, context.Background(), gestureIns(g, 1))
	time.Sleep(held)
	gate.open()
	for _, p := range []*pending{plug, queued} {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if plug.service < held {
		t.Errorf("held run reported %v of service, held %v in the engine", plug.service, held)
	}
	if queued.service <= 0 || queued.service >= held {
		t.Errorf("queued request reported %v of service after waiting %v in the queue", queued.service, held)
	}
}

// panicExe is an executable double that panics on one poisoned input
// tensor and runs every other request on the engine it wraps.
type panicExe struct {
	inference.Executable
	poison *tensor.Tensor
}

func (e panicExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	for _, t := range in {
		if t == e.poison {
			panic("kernel fault")
		}
	}
	return e.Executable.Run(in)
}

// TestServeRecoversEnginePanic: a panic inside the engine fails that
// request with an error, and the dispatcher goes on serving the next
// one with the engine-exact result.
func TestServeRecoversEnginePanic(t *testing.T) {
	g := gestureGraph()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	poison := gestureInput(0)
	s, err := ServeCompiled(g, panicExe{eng, poison}, "panicky", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := inferSingle(s, g, poison); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking run returned %v, want the recovered panic", err)
	}
	in := gestureInput(1)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inferSingle(s, g, in)
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	if d, err := tensor.MaxAbsDiff(want, got); err != nil || d != 0 {
		t.Errorf("request after the panic differs from the engine by %v (%v)", d, err)
	}
	if st := s.Stats(); st.Requests != 2 {
		t.Errorf("stats recorded %d requests, want 2", st.Requests)
	}
}
