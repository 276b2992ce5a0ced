package microserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// ServeConfig tunes a node's inference server.
type ServeConfig struct {
	// QueueDepth is the request channel capacity (default 32).
	QueueDepth int
}

// ErrClosed reports a server that has shut down: Submit returns it, and
// requests still queued when Close landed complete with it.
var ErrClosed = errors.New("microserver: server closed")

// ServeStats is a server's cumulative telemetry, the serving-side
// counterpart of the chassis Monitoring snapshots.
type ServeStats struct {
	Requests int64
	// Batches counts engine runs, one per served request.
	Batches int64
	// Cancelled counts requests whose context was cancelled while they
	// were still queued: they are completed with the context error
	// without ever reaching the engine, so a disconnected client stops
	// consuming replica time. Cancelled requests are not counted in
	// Requests.
	Cancelled int64
}

// Server is one microserver node's inference service: a single compiled
// executable shared by all clients, fed through a queue. The dispatcher
// is a worker, not a batcher: it runs each request as it was handed in,
// in arrival order, so an engine run carries exactly the rows its
// submitter stacked. Coalescing belongs to the layer that knows which
// replica is busy (the front door's batcher in internal/serve).
//
// The server is backend-generic: it fronts whatever
// inference.Backend compiled the model — the host CPU engine or any
// simulated accelerator (accel.Backend) mounted in a chassis slot. The
// fleet layer (internal/cluster) builds one Server per device and
// routes traffic across them.
type Server struct {
	exe         inference.Executable
	backendName string

	reqs chan *request
	quit chan struct{}
	wg   sync.WaitGroup

	// lifeMu serializes shutdown against in-flight submissions: Submit
	// holds a read lock across its enqueue, so Close (write lock) cannot
	// mark the server closed while a request is between the closed-check
	// and the queue. Close never waits while holding it.
	lifeMu sync.RWMutex
	closed bool

	statsMu sync.Mutex
	stats   ServeStats
}

type request struct {
	ctx  context.Context
	ins  map[string]*tensor.Tensor
	done func(outs map[string]*tensor.Tensor, service time.Duration, err error)
}

// ServeCompiled starts the dispatcher over a compiled executable. The
// caller compiles — backend.Compile, or inference.PlanCache when
// several replicas of one artifact share a backend, so every server
// binds the one plan and a replica cold-start skips lowering. Graphs
// with any number of inputs and outputs are served. The executable must
// be safe for concurrent Run (both host engines and accel programs
// are); Close releases only the server, never the plan.
func ServeCompiled(g *nn.Graph, exe inference.Executable, backendName string, cfg ServeConfig) (*Server, error) {
	if exe == nil {
		return nil, fmt.Errorf("microserver: nil executable")
	}
	if len(g.Inputs) == 0 || len(g.Outputs) == 0 {
		return nil, fmt.Errorf("microserver: graph %q has %d inputs/%d outputs, need at least 1/1",
			g.Name, len(g.Inputs), len(g.Outputs))
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	s := &Server{
		exe:         exe,
		backendName: backendName,
		reqs:        make(chan *request, cfg.QueueDepth),
		quit:        make(chan struct{}),
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Executable exposes the shared compiled model (e.g. for direct batch
// submission, latency prediction or reporting).
func (s *Server) Executable() inference.Executable { return s.exe }

// Backend returns the name of the backend the model was compiled for.
func (s *Server) Backend() string { return s.backendName }

// InferMap submits a full input map (keyed by input-node name) and
// blocks until the full output map is ready. Safe for concurrent use.
func (s *Server) InferMap(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	var (
		outs map[string]*tensor.Tensor
		err  error
	)
	ready := make(chan struct{})
	if serr := s.Submit(context.Background(), inputs, func(o map[string]*tensor.Tensor, _ time.Duration, e error) {
		outs, err = o, e
		close(ready)
	}); serr != nil {
		return nil, serr
	}
	<-ready
	return outs, err
}

// Submit hands a request to the queue and returns; done is called
// exactly once with the result and the engine time it took (zero when
// the request never reached the engine), on the dispatcher goroutine,
// so it must not block. A non-nil return (ErrClosed, else the error of
// a dead context) means the request was not accepted and done will not
// be called. The enqueue blocks while the queue is full — node-level
// backpressure for direct callers; the fleet layer sizes the queue so it
// never does — and aborts when ctx ends. A request whose context is
// cancelled while it is still queued completes with the context error
// instead of being dispatched, so a disconnected client stops consuming
// replica time; one already handed to the engine runs to completion
// (dispatches are not preemptible).
func (s *Server) Submit(ctx context.Context, inputs map[string]*tensor.Tensor, done func(outs map[string]*tensor.Tensor, service time.Duration, err error)) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.reqs <- &request{ctx: ctx, ins: inputs, done: done}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the dispatcher and waits for it: the request inside the
// engine completes, requests still queued complete with ErrClosed, and
// later Submit calls return it.
func (s *Server) Close() {
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return
	}
	s.closed = true
	close(s.quit)
	s.lifeMu.Unlock()
	s.wg.Wait()
}

// Stats returns cumulative serving telemetry.
func (s *Server) Stats() ServeStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		// Once shutdown has begun, stop accepting new work even if the
		// queue is non-empty: queued requests are failed by drain, which
		// keeps Close prompt and deterministic.
		select {
		case <-s.quit:
			s.drain()
			return
		default:
		}
		select {
		case r := <-s.reqs:
			s.run(r)
		case <-s.quit:
			s.drain()
			return
		}
	}
}

// drain fails the requests still queued when shutdown began.
func (s *Server) drain() {
	for {
		select {
		case r := <-s.reqs:
			r.done(nil, 0, ErrClosed)
		default:
			return
		}
	}
}

// run is the one place the server calls the executable: the request's
// own input map goes to the engine unchanged, unless its caller vanished
// while it was queued; then it completes with the context error and
// never reaches the engine. The engine run is timed here, so the
// service time a caller sees excludes the wait in the queue.
func (s *Server) run(r *request) {
	if err := r.ctx.Err(); err != nil {
		s.statsMu.Lock()
		s.stats.Cancelled++
		s.statsMu.Unlock()
		r.done(nil, 0, err)
		return
	}
	start := time.Now()
	outs, err := s.call(r.ins)
	service := time.Since(start)
	// Counted before the completion runs: a caller holding its result
	// already sees itself in Stats.
	s.statsMu.Lock()
	s.stats.Requests++
	s.stats.Batches++
	s.statsMu.Unlock()
	r.done(outs, service, err)
}

// call runs the executable once. A panic inside it fails this request
// with an error instead of taking the process down; the engines re-raise
// a fan-out worker's panic on the calling goroutine, so it lands here.
func (s *Server) call(ins map[string]*tensor.Tensor) (outs map[string]*tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			outs, err = nil, fmt.Errorf("microserver: %s engine panicked: %v", s.backendName, p)
		}
	}()
	return s.exe.Run(ins)
}
