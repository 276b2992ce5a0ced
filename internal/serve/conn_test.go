package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// wideModel answers 16 floats with 1,024, so a few replies fill the
// socket of a peer that has stopped reading, and its second layer keeps
// the replica busy long enough that requests arriving meanwhile share
// batches.
func wideModel() *nn.Graph {
	b := nn.NewBuilder("wide", nn.BuildOptions{Weights: true, Seed: 3})
	return b.Graph(b.Dense(b.Dense(b.Input("x", 16), 16, 1024), 1024, 1024))
}

func wideInput(seed int) map[string]*tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 16)
	for i := range in.F32 {
		in.F32[i] = float32((i+seed)%9) / 9
	}
	return map[string]*tensor.Tensor{"x": in}
}

// TestSlowReaderIsolation: connection A floods requests and never reads
// a reply, so it soon owes replyDepth of them; connection B shares its
// tenant, model, batcher and replica. A's reader stops reading A, B's
// replies all arrive, bit for bit, and the write bound then tears A down
// on its own. The fleet's accounting closes and Close leaves no
// goroutine behind.
func TestSlowReaderIsolation(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 500 * time.Millisecond
	goroutines := runtime.NumGoroutine()

	g := wideModel()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	sched, dep := deployGraph(t, armFleet(t, 1), cluster.Config{}, g)
	srv, err := Listen("127.0.0.1:0", sched, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A: a raw connection that writes twice its reply depth in requests
	// and never reads. Small socket buffers on both ends keep the replies
	// the kernel absorbs to a few; the requests the server leaves unread
	// fit its receive buffer.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	a := conn.(*net.TCPConn)
	defer a.Close()
	if err := a.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	for srv.Stats().Conns == 0 {
		runtime.Gosched()
	}
	srv.mu.Lock()
	for c := range srv.conns {
		c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	srv.mu.Unlock()
	request := func(id int) []byte {
		return frameBytes(TypeRequest, uint64(id), func(b []byte) []byte {
			b, _ = appendTensorMap(appendString(b, g.Name), wideInput(id))
			return b
		})
	}
	for id := 0; id < 2*replyDepth; id++ {
		if _, err := a.Write(request(id)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Requests <= replyDepth; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server read %d of A's requests, want past %d", srv.Stats().Requests, replyDepth)
		}
	}

	// B: every reply arrives while A owes its full depth. A keeps
	// sending, a few requests ahead of each of B's, so where A is still
	// read the two share batches.
	b, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i, id := 0, 2*replyDepth; i < 32; i++ {
		for end := id + 4; id < end; id++ {
			a.Write(request(id)) // fails once the write bound has torn A down
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		outs, err := b.InferCtx(ctx, g.Name, wideInput(i))
		cancel()
		if err != nil {
			t.Fatalf("B's call %d behind a stalled reader: %v", i, err)
		}
		want, err := eng.Run(wideInput(i))
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want[g.Outputs[0]], outs[g.Outputs[0]]); d != 0 {
			t.Errorf("B's call %d diverges by %g", i, d)
		}
	}

	// The write bound tears A down; B stays.
	for deadline := time.Now().Add(20 * writeTimeout); srv.Stats().Conns > 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a peer that stopped reading is still connected after %v", 20*writeTimeout)
		}
	}
	a.Close()
	b.Close()
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	if st := dep.Stats(); st.Submitted != st.Completed+st.Rejected {
		t.Errorf("submitted %d != completed %d + rejected %d", st.Submitted, st.Completed, st.Rejected)
	}
	sched.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the test", runtime.NumGoroutine(), goroutines)
		}
	}
}

// gateExe is the socket tests' engine double: once shut, every engine
// call sends the rows it carries on calls and then waits until the test
// opens the gate; the runs themselves are the engine's.
type gateExe struct {
	inference.Executable
	shut    atomic.Bool
	calls   chan int
	release chan struct{}
	once    sync.Once
}

// open lets the held call and every later one through.
func (e *gateExe) open() { e.once.Do(func() { close(e.release) }) }

// gateWrap returns the wrapBackend that puts a gateExe in front of the
// engine, storing it in *gate.
func gateWrap(gate **gateExe) wrapBackend {
	return func(e inference.Executable) inference.Executable {
		*gate = &gateExe{Executable: e, calls: make(chan int, 64), release: make(chan struct{})}
		return *gate
	}
}

func (e *gateExe) enter(ins ...map[string]*tensor.Tensor) {
	if !e.shut.Load() {
		return
	}
	rows := 0
	for _, in := range ins {
		for _, t := range in {
			rows += t.Shape[0]
			break
		}
	}
	e.calls <- rows
	<-e.release
}

func (e *gateExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	e.enter(in)
	return e.Executable.Run(in)
}

func (e *gateExe) RunBatch(b []map[string]*tensor.Tensor) ([]map[string]*tensor.Tensor, error) {
	e.enter(b...)
	return e.Executable.RunBatch(b)
}

// plugReplica shuts the gate and holds the replica inside its engine
// with one request of its own connection; the returned channel yields
// that request's result once the gate opens, at the latest when the
// test ends.
func plugReplica(t *testing.T, srv *Server, gate *gateExe, g *nn.Graph) (*Client, chan error) {
	t.Helper()
	gate.shut.Store(true)
	t.Cleanup(gate.open)
	plug, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := plug.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: testInput(0)})
		done <- err
	}()
	if rows := <-gate.calls; rows != 1 {
		t.Fatalf("the plug reached the engine as %d rows", rows)
	}
	return plug, done
}

// rawRequest is one request frame for the test model.
func rawRequest(t *testing.T, g *nn.Graph, id int) []byte {
	t.Helper()
	var err error
	b := frameBytes(TypeRequest, uint64(id), func(b []byte) []byte {
		b, err = appendTensorMap(appendString(b, g.Name), map[string]*tensor.Tensor{g.Inputs[0]: testInput(id)})
		return b
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMalformedRequestIsNotARequest sends one request frame whose
// tensor map does not decode and one HTTP body that is not JSON: each is
// answered as a bad request and counted in BadRequest, and neither
// counts in Requests, which counts decoded inference requests.
func TestMalformedRequestIsNotARequest(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 8}, Config{})
	before := srv.Stats()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	truncated := frameBytes(TypeRequest, 1, func(b []byte) []byte {
		return append(appendString(b, g.Name), 0xff) // a tensor count cut short
	})
	if _, err := conn.Write(truncated); err != nil {
		t.Fatal(err)
	}
	f, err := newFrameReader(conn, 0).next()
	if err != nil {
		t.Fatal(err)
	}
	if status, err := f.body.u8(); err != nil || status != StatusBadRequest {
		t.Fatalf("malformed frame answered with status %d (%v), want %d", status, err, StatusBadRequest)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, _ := newJSONRequest(ts.URL+"/v1/infer", []byte(`{"model": `), "")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body answered %d, want 400", resp.StatusCode)
	}

	st := srv.Stats()
	if st.Requests != before.Requests || st.BadRequest != before.BadRequest+2 {
		t.Errorf("Requests %d -> %d and BadRequest %d -> %d, want Requests unmoved and BadRequest +2",
			before.Requests, st.Requests, before.BadRequest, st.BadRequest)
	}
}

// waitFor polls cond until it holds and reports whether it did within
// 10 s.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestVanishedMemberSkipsEngine: three one-row requests from three
// connections are held behind a gate-held replica and leave as one
// merged submission by count; one connection closes before the gate
// opens. The batch reaches the engine as the two live rows, not three,
// and the two live requests get the reference rows back bit for bit.
func TestVanishedMemberSkipsEngine(t *testing.T) {
	g := testModel()
	var gate *gateExe
	srv, _, dep := serveWrapped(t, g, gateWrap(&gate), Config{Batch: BatchPolicy{MaxBatch: 3, MaxDelay: time.Hour}})
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	plug, plugged := plugReplica(t, srv, gate, g)
	defer plug.Close()

	type result struct {
		outs map[string]*tensor.Tensor
		err  error
	}
	live := make([]chan result, 2)
	for i := range live {
		cl, err := Dial(srv.Addr(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		live[i] = make(chan result, 1)
		go func(i int) {
			outs, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: testInput(i + 1)})
			live[i] <- result{outs, err}
		}(i)
	}
	gone, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gone.Write(rawRequest(t, g, 3)); err != nil {
		t.Fatal(err)
	}
	// The third arrival fills MaxBatch: the merged submission is queued
	// behind the plug, and then its third member's connection goes.
	if !waitFor(func() bool { return dep.Stats().Submitted == 2 }) {
		t.Fatal("the merged batch was never submitted")
	}
	gone.Close()
	if !waitFor(func() bool { return srv.Stats().Conns == 3 }) {
		t.Error("the vanished connection still counts as open")
	}
	gate.open()

	if err := <-plugged; err != nil {
		t.Fatal(err)
	}
	for i, ch := range live {
		r := <-ch
		if r.err != nil {
			t.Fatalf("live request %d: %v", i, r.err)
		}
		want, err := eng.RunSingle(testInput(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, r.outs[g.Outputs[0]]); d != 0 {
			t.Errorf("live request %d diverges from the reference by %g", i, d)
		}
	}
	if rows := <-gate.calls; rows != 2 {
		t.Errorf("the merged batch reached the engine as %d rows, want the 2 live ones", rows)
	}
	if n := len(gate.calls); n != 0 {
		t.Errorf("%d more engine calls after the merged batch", n)
	}
	if !waitFor(func() bool { return dep.Stats().Completed == 2 }) {
		t.Error("the fleet never completed both submissions")
	}
	if st := dep.Replicas()[0].Server().Stats(); st.Cancelled != 1 {
		t.Errorf("replica counted %d cancelled records, want 1", st.Cancelled)
	}
}

// TestDisconnectBurstCancelsQueued: 32 connections each send one
// request while a gate-held replica is busy, the 32 leave as one
// submission, and every one of the connections closes before the gate
// opens. The engine runs none of the vanished rows, the replica counts
// them cancelled, the fleet's accounting closes and, once everything is
// closed, no goroutine is left behind.
func TestDisconnectBurstCancelsQueued(t *testing.T) {
	const burst = 32
	goroutines := runtime.NumGoroutine()
	g := testModel()
	var gate *gateExe
	srv, sched, dep := serveWrapped(t, g, gateWrap(&gate), Config{Batch: BatchPolicy{MaxBatch: burst, MaxDelay: time.Hour}})
	plug, plugged := plugReplica(t, srv, gate, g)

	conns := make([]net.Conn, burst)
	for i := range conns {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(rawRequest(t, g, i+1)); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if !waitFor(func() bool { return dep.Stats().Submitted == 2 }) {
		t.Fatal("the burst was never submitted")
	}
	for _, c := range conns {
		c.Close()
	}
	if !waitFor(func() bool { return srv.Stats().Conns == 1 }) {
		t.Fatal("the burst's connections still count as open")
	}
	gate.open()
	if err := <-plugged; err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return dep.Stats().Completed == 2 }) {
		t.Fatal("the fleet never completed both submissions")
	}

	if st := dep.Stats(); st.Submitted != st.Completed+st.Rejected || st.Cancelled != 1 {
		t.Errorf("fleet stats %+v, want Submitted == Completed + Rejected and the burst's submission cancelled", st)
	}
	if n := len(gate.calls); n != 0 {
		t.Errorf("the engine ran %d calls after the plug; the vanished rows must not run", n)
	}
	if st := dep.Replicas()[0].Server().Stats(); st.Cancelled != burst {
		t.Errorf("replica counted %d cancelled records, want %d", st.Cancelled, burst)
	}
	plug.Close()
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	sched.Close()
	if !waitFor(func() bool { return runtime.NumGoroutine() <= goroutines }) {
		t.Errorf("%d goroutines after Close, %d before the test", runtime.NumGoroutine(), goroutines)
	}
}

// TestGracefulDrain closes the fleet behind a live front door. One
// request is held inside a gate-held replica's engine and three more
// queue behind it, one submission each (MaxBatch 1), when the scheduler
// closes; the gate opens only once the close has armed the replica's
// drain. The held request is answered bit for bit as its lone engine
// run, each queued one with StatusShuttingDown, which the client reads
// as ErrShuttingDown, none of them reaches the engine, the fleet's
// accounting closes when Close returns and no reply counts as an engine
// error.
func TestGracefulDrain(t *testing.T) {
	g := testModel()
	var gate *gateExe
	srv, sched, dep := serveWrapped(t, g, gateWrap(&gate), Config{Batch: BatchPolicy{MaxBatch: 1}})
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	gate.shut.Store(true)
	t.Cleanup(gate.open)

	type result struct {
		outs map[string]*tensor.Tensor
		err  error
	}
	results := make([]chan result, 4)
	for i := range results {
		cl, err := Dial(srv.Addr(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		results[i] = make(chan result, 1)
		go func(i int) {
			outs, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: testInput(i)})
			results[i] <- result{outs, err}
		}(i)
		if i == 0 {
			if rows := <-gate.calls; rows != 1 {
				t.Fatalf("the held request reached the engine as %d rows", rows)
			}
		}
	}
	if !waitFor(func() bool { return dep.Stats().Submitted == 4 }) {
		t.Fatal("the three queued requests were never submitted")
	}

	closed := make(chan struct{})
	go func() { sched.Close(); close(closed) }()
	// An empty submission queues nothing and a closed replica refuses it,
	// so this probe turns true exactly when the drain is armed.
	replica := dep.Replicas()[0].Server()
	for !errors.Is(replica.Submit(nil, nil), microserver.ErrClosed) {
		runtime.Gosched()
	}
	gate.open()
	<-closed
	if st := dep.Stats(); st.Submitted != 4 || st.Submitted != st.Completed+st.Rejected {
		t.Errorf("after Close: submitted %d completed %d rejected %d, want 4 4 0", st.Submitted, st.Completed, st.Rejected)
	}

	held := <-results[0]
	if held.err != nil {
		t.Fatalf("the held request failed across the close: %v", held.err)
	}
	want, err := eng.RunSingle(testInput(0))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, held.outs[g.Outputs[0]]); d != 0 {
		t.Errorf("the held request diverges from its lone run by %g", d)
	}
	for i, ch := range results[1:] {
		if r := <-ch; !errors.Is(r.err, ErrShuttingDown) {
			t.Errorf("queued request %d answered %v, want ErrShuttingDown", i+1, r.err)
		}
	}
	if n := len(gate.calls); n != 0 {
		t.Errorf("%d queued requests reached the engine after the close", n)
	}
	if st := srv.Stats(); st.Errors != 0 {
		t.Errorf("ServerStats.Errors %d, want 0", st.Errors)
	}
}

// TestReadDeadlineClosesStalledPeers shortens the frame read bound: a
// peer that sends nothing and one that stalls half way through a frame
// header are both torn down once it passes, and not before, while a
// peer that sends a request every half bound stays open and served.
func TestReadDeadlineClosesStalledPeers(t *testing.T) {
	// Restored after the server's own cleanup has waited for its
	// connection handlers, which read the bound.
	saved := readTimeout
	t.Cleanup(func() { readTimeout = saved })
	readTimeout = 250 * time.Millisecond
	srv, _, g := startServer(t, 1, cluster.Config{}, Config{})

	start := time.Now()
	var stalled []net.Conn
	for _, prefix := range [][]byte{nil, rawRequest(t, g, 1)[:2]} {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(prefix); err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, c)
	}
	for i, c := range stalled {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("stalled peer %d read %d bytes and %v, want the server to close it", i, n, err)
		}
		if waited := time.Since(start); waited < readTimeout {
			t.Errorf("stalled peer %d closed after %v, before the %v bound", i, waited, readTimeout)
		}
	}

	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		time.Sleep(readTimeout / 2)
		if _, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: testInput(i)}); err != nil {
			t.Fatalf("request %d of a peer that keeps sending: %v", i, err)
		}
	}
	if conns := srv.Stats().Conns; conns != 1 {
		t.Errorf("%d connections open, want the live peer's alone", conns)
	}
}

// TestDialBoundsSilentPeer: a peer that accepts the connection and
// never answers the hello fails Dial within the write bound instead of
// holding it for as long as the peer stays silent.
func TestDialBoundsSilentPeer(t *testing.T) {
	saved := writeTimeout
	t.Cleanup(func() { writeTimeout = saved })
	writeTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	defer func() {
		select {
		case conn := <-accepted:
			conn.Close()
		default:
		}
	}()
	done := make(chan error, 1)
	go func() {
		c, err := Dial(ln.Addr().String(), "")
		if c != nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial to a silent peer succeeded")
		}
	case <-time.After(20 * writeTimeout):
		t.Fatalf("Dial to a silent peer still blocked after %v", 20*writeTimeout)
	}
}

// TestRequestWriteBound: a server that completes the hello and then
// never reads stalls a large request's write once the socket buffers
// fill. The write bound fails that call and closes the connection,
// which fails the call already waiting on it for a reply too.
func TestRequestWriteBound(t *testing.T) {
	saved := writeTimeout
	t.Cleanup(func() { writeTimeout = saved })
	writeTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.(*net.TCPConn).SetReadBuffer(4096)
		if _, err := newFrameReader(conn, DefaultMaxFrame).next(); err == nil {
			b := beginFrame(TypeHelloOK, 0, 3)
			conn.Write(finishFrame(appendString(b, "t")))
		}
		peer <- conn // and never read again
	}()
	c, err := Dial(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() { (<-peer).Close() }()
	c.conn.(*net.TCPConn).SetWriteBuffer(4096)

	results := make(chan error, 2)
	go func() { // small: written whole, then waits for a reply
		_, err := c.InferCtx(context.Background(), "m", wideInput(0))
		results <- err
	}()
	time.Sleep(20 * time.Millisecond)
	big := tensor.New(tensor.FP32, 1, 1<<20)
	go func() {
		_, err := c.InferCtx(context.Background(), "m", map[string]*tensor.Tensor{"x": big})
		results <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err == nil {
				t.Fatal("a call on a stalled connection succeeded")
			}
		case <-time.After(20 * writeTimeout):
			t.Fatalf("%d of 2 calls on a stalled connection still blocked after %v", 2-i, 20*writeTimeout)
		}
	}
}
