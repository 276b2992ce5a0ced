package microserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	// Requests counts the records that reached the engine, Batches the
	// engine runs: Requests / Batches is the records per run.
	Requests int64
	Batches  int64
	// Cancelled counts records dropped because their context had ended
	// before their run, so a disconnected client stops consuming replica
	// time; they complete with the context error and are not Requests.
	Cancelled int64
}

// Request is one caller's rows on their way to an engine: the record
// the front door groups, the fleet admits and the server runs, under
// the caller's own context. Rows is the leading dimension of Ins, as
// inference.CheckInputs reads it. Done is called exactly once, with
// the record's own output rows or an error, and must not block.
type Request struct {
	Ctx  context.Context
	Ins  map[string]*tensor.Tensor
	Rows int
	Done func(outs map[string]*tensor.Tensor, err error)
}

// Server is one microserver node's inference service: a single compiled
// executable shared by all clients, fed through a queue. The dispatcher
// is a worker, not a batcher: it runs each submission as it was handed
// in, in arrival order, as one engine call. Coalescing belongs to the
// layer that knows which replica is busy (the front door's batcher in
// internal/serve).
//
// The server is backend-generic: it fronts whatever
// inference.Backend compiled the model — the host CPU engine or any
// simulated accelerator (accel.Backend) mounted in a chassis slot. The
// fleet layer (internal/cluster) builds one Server per device and
// routes traffic across them.
type Server struct {
	exe         inference.Executable
	backendName string

	reqs chan submission
	quit chan struct{}
	wg   sync.WaitGroup

	// lifeMu serializes shutdown against in-flight submissions: Submit
	// holds a read lock across its enqueue, so Close (write lock) cannot
	// mark the server closed while a request is between the closed-check
	// and the queue. Close never waits while holding it.
	lifeMu sync.RWMutex
	closed bool

	requests  atomic.Int64
	batches   atomic.Int64
	cancelled atomic.Int64
}

// submission is one queued Submit.
type submission struct {
	reqs []*Request
	done func(service time.Duration, rows int, err error)
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
		reqs:        make(chan submission, cfg.QueueDepth),
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
	return Call(context.Background(), inputs, func(q *Request) error {
		return s.Submit([]*Request{q}, nil)
	})
}

// Call is one record and a wait: it hands ins, as a record under ctx,
// to submit and returns the record's result, or ctx's error as soon as
// ctx ends (the record then still completes, unobserved). A submit
// error is returned as is.
func Call(ctx context.Context, ins map[string]*tensor.Tensor, submit func(*Request) error) (map[string]*tensor.Tensor, error) {
	var outs map[string]*tensor.Tensor
	var err error
	ready := make(chan struct{})
	q := &Request{Ctx: ctx, Ins: ins, Done: func(o map[string]*tensor.Tensor, e error) { outs, err = o, e; close(ready) }}
	if serr := submit(q); serr != nil {
		return nil, serr
	}
	select {
	case <-ready:
		return outs, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Submit queues one submission, which the server owns from here on,
// and returns. Records whose context has ended when it runs are dropped,
// each completed with its context's error; the rest run as one engine
// call (exe.Run for one record, exe.RunBatch for several). Then done, if
// non-nil, gets the engine time, the rows that ran and the run's error
// (zeros and a context error if nothing ran), and each record's Done
// its own rows or that error, all on the dispatcher goroutine: done may
// block it (the fleet holds emulated device latency there), a record's
// Done may not. Once Close has begun it returns ErrClosed and queues
// nothing, as an empty reqs does. The enqueue blocks while the queue is
// full; the fleet sizes the queue so it never does.
func (s *Server) Submit(reqs []*Request, done func(service time.Duration, rows int, err error)) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if len(reqs) > 0 {
		s.reqs <- submission{reqs: reqs, done: done}
	}
	return nil
}

// Close stops the dispatcher and waits for it: the submission inside
// the engine completes, its completions included, submissions still
// queued complete with ErrClosed, and later Submit calls return it.
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
	return ServeStats{Requests: s.requests.Load(), Batches: s.batches.Load(), Cancelled: s.cancelled.Load()}
}

func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		// Once shutdown has begun, stop accepting new work even if the
		// queue is non-empty: queued submissions are failed by drain,
		// which keeps Close prompt and deterministic.
		select {
		case <-s.quit:
			s.drain()
			return
		default:
		}
		select {
		case sub := <-s.reqs:
			s.run(sub)
		case <-s.quit:
			s.drain()
			return
		}
	}
}

// drain fails the submissions still queued when shutdown began.
func (s *Server) drain() {
	for {
		select {
		case sub := <-s.reqs:
			complete(sub, sub.reqs, nil, 0, 0, ErrClosed)
		default:
			return
		}
	}
}

// run is the one place the server calls the executable. A record whose
// caller left while it was queued is dropped first; the rest go down as
// their callers' own maps, in one call, timed here so that the service
// time a completion sees excludes the wait in the queue.
func (s *Server) run(sub submission) {
	live, rows := sub.reqs[:0], 0 // filtered in place: the server owns it
	for _, q := range sub.reqs {
		if err := q.Ctx.Err(); err != nil {
			s.cancelled.Add(1)
			q.Done(nil, err)
			continue
		}
		live, rows = append(live, q), rows+q.Rows
	}
	if len(live) == 0 {
		complete(sub, nil, nil, 0, 0, sub.reqs[0].Ctx.Err())
		return
	}
	start := time.Now()
	outs, err := s.call(live)
	service := time.Since(start)
	// Counted before the completions run: a caller holding its result
	// already sees itself in Stats.
	s.requests.Add(int64(len(live)))
	s.batches.Add(1)
	complete(sub, live, outs, service, rows, err)
}

// complete runs a submission's done, then each record's Done with its
// own outputs (outs is indexed like reqs) or err.
func complete(sub submission, reqs []*Request, outs []map[string]*tensor.Tensor, service time.Duration, rows int, err error) {
	if sub.done != nil {
		sub.done(service, rows, err)
	}
	for i, q := range reqs {
		var out map[string]*tensor.Tensor
		if err == nil {
			out = outs[i]
		}
		q.Done(out, err)
	}
}

// call runs the executable once over the records' input maps. A panic
// inside it fails the call with an error instead of taking the process
// down; the engines re-raise a fan-out worker's panic on the calling
// goroutine, so it lands here.
func (s *Server) call(reqs []*Request) (outs []map[string]*tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			outs, err = nil, fmt.Errorf("microserver: %s engine panicked: %v", s.backendName, p)
		}
	}()
	if len(reqs) == 1 {
		out, err := s.exe.Run(reqs[0].Ins)
		return []map[string]*tensor.Tensor{out}, err
	}
	ins := make([]map[string]*tensor.Tensor, len(reqs))
	for i, q := range reqs {
		ins[i] = q.Ins
	}
	return s.exe.RunBatch(ins)
}
