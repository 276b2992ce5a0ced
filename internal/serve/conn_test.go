package serve

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
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
	writeTimeout = 500 * time.Millisecond
	defer func() { writeTimeout = replyWriteTimeout }()
	goroutines := runtime.NumGoroutine()

	g := wideModel()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	sched := cluster.NewScheduler(armFleet(t, 1), cluster.Config{})
	defer sched.Close()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
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
