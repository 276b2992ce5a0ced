package microserver

import (
	"context"
	"fmt"
	"sync"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// ServeConfig tunes a node's inference server.
type ServeConfig struct {
	// MaxBatch is the largest number of queued requests fused into one
	// engine dispatch (default 8). The dispatcher never waits for a
	// batch to fill: it fuses what queued up while the engine was busy.
	MaxBatch int
	// QueueDepth is the request channel capacity (default 4*MaxBatch).
	QueueDepth int
	// EngineOptions configure compilation on the serving backend (for
	// the CPU backend these are the host-engine options).
	EngineOptions []inference.Option
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// ServeStats is a server's cumulative telemetry, the serving-side
// counterpart of the chassis Monitoring snapshots.
type ServeStats struct {
	Requests int64
	Batches  int64
	// MaxBatch is the largest batch actually dispatched.
	MaxBatch int
	// Cancelled counts requests whose context was cancelled while they
	// were still queued: they are completed with the context error
	// without ever reaching the engine, so a disconnected client stops
	// consuming replica time. Cancelled requests are not counted in
	// Requests.
	Cancelled int64
}

// MeanBatch returns the average number of requests fused per dispatch.
func (s ServeStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// Server is one microserver node's inference service: a single compiled
// executable shared by all clients, fed through a batching queue.
// Calls that queue up while the engine is busy are coalesced into one
// RunBatch dispatch, which amortizes per-call overhead and hands the
// parallel kernels larger work items — the "serve as fast as the
// hardware allows" path for a module hosting a DL workload.
//
// The server is backend-generic: it fronts whatever
// inference.Backend compiled the model — the host CPU engine or any
// simulated accelerator (accel.Backend) mounted in a chassis slot. The
// fleet layer (internal/cluster) builds one Server per device and
// routes traffic across them.
type Server struct {
	exe         inference.Executable
	backendName string
	graphName   string
	inputNames  []string
	outputNames []string
	cfg         ServeConfig

	reqs chan *request
	quit chan struct{}
	wg   sync.WaitGroup

	// lifeMu serializes shutdown against in-flight submissions: InferMap
	// holds a read lock across its enqueue, so Close (write lock) cannot
	// mark the server closed while a request is between the closed-check
	// and the queue. Dispatcher goroutines never take lifeMu.
	lifeMu sync.RWMutex
	closed bool

	statsMu sync.Mutex
	stats   ServeStats
}

type request struct {
	ctx  context.Context
	ins  map[string]*tensor.Tensor
	outs map[string]*tensor.Tensor
	err  error
	done chan struct{}
}

// Serve compiles the graph on the host CPU backend and starts the
// dispatcher — the historical single-node entry point, now a thin
// wrapper over ServeBackend.
func Serve(g *nn.Graph, cfg ServeConfig) (*Server, error) {
	return ServeBackend(g, inference.CPUBackend{}, cfg)
}

// ServeBackend compiles the graph for the given backend and starts the
// dispatcher. Graphs with any number of inputs and outputs are served:
// full input/output maps flow through the batching queue (InferMap);
// the single-tensor Infer shortcut additionally requires the 1-in/1-out
// serving shape.
func ServeBackend(g *nn.Graph, b inference.Backend, cfg ServeConfig) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("microserver: nil backend")
	}
	if len(g.Inputs) == 0 || len(g.Outputs) == 0 {
		return nil, fmt.Errorf("microserver: graph %q has %d inputs/%d outputs, need at least 1/1",
			g.Name, len(g.Inputs), len(g.Outputs))
	}
	cfg = cfg.withDefaults()
	exe, err := b.Compile(g, cfg.EngineOptions...)
	if err != nil {
		return nil, fmt.Errorf("microserver: compile %q for %s: %w", g.Name, b.Name(), err)
	}
	return ServeCompiled(g, exe, b.Name(), cfg)
}

// ServeCompiled starts the dispatcher over an already-compiled
// executable — the plan-cache deployment path (inference.PlanCache):
// when several replicas of one artifact share a backend, the fleet
// layer compiles once and binds every server to the shared plan, so a
// replica cold-start skips lowering entirely. The executable must be
// safe for concurrent Run (both host engines and accel programs are);
// Close releases only the server, never the shared plan.
func ServeCompiled(g *nn.Graph, exe inference.Executable, backendName string, cfg ServeConfig) (*Server, error) {
	if exe == nil {
		return nil, fmt.Errorf("microserver: nil executable")
	}
	if len(g.Inputs) == 0 || len(g.Outputs) == 0 {
		return nil, fmt.Errorf("microserver: graph %q has %d inputs/%d outputs, need at least 1/1",
			g.Name, len(g.Inputs), len(g.Outputs))
	}
	cfg = cfg.withDefaults()
	s := &Server{
		exe:         exe,
		backendName: backendName,
		graphName:   g.Name,
		inputNames:  append([]string(nil), g.Inputs...),
		outputNames: append([]string(nil), g.Outputs...),
		cfg:         cfg,
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

// Engine returns the host CPU engine backing this server, or nil when
// the server fronts a non-CPU executable that does not expose one.
func (s *Server) Engine() *inference.Engine {
	switch e := s.exe.(type) {
	case *inference.Engine:
		return e
	case interface{ HostEngine() *inference.Engine }:
		return e.HostEngine()
	}
	return nil
}

// Infer submits one input and blocks until its result is ready — the
// single-tensor shortcut for 1-input/1-output graphs. Safe for
// concurrent use; concurrent callers share dispatches. The input
// carries a leading batch dimension ([1, ...] for one sample; larger
// batches are allowed and fused with the queue like any other request).
func (s *Server) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(s.inputNames) != 1 || len(s.outputNames) != 1 {
		return nil, fmt.Errorf("microserver: Infer wants 1 input/1 output, graph %q has %d/%d (use InferMap)",
			s.graphName, len(s.inputNames), len(s.outputNames))
	}
	outs, err := s.InferMap(map[string]*tensor.Tensor{s.inputNames[0]: in})
	if err != nil {
		return nil, err
	}
	return outs[s.outputNames[0]], nil
}

// InferMap submits a full input map (keyed by input-node name) and
// blocks until the full output map is ready — the general serving path
// for multi-head graphs. Safe for concurrent use; concurrent callers
// share dispatches.
func (s *Server) InferMap(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	p, err := s.SubmitMap(inputs)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// SubmitMap hands a request to the batching queue without waiting for
// its result; the returned Pending resolves through Wait. The enqueue
// blocks while the queue is full, which is the node-level backpressure
// the fleet router leans on.
func (s *Server) SubmitMap(inputs map[string]*tensor.Tensor) (*Pending, error) {
	return s.SubmitMapCtx(context.Background(), inputs)
}

// SubmitMapCtx is SubmitMap bound to a caller context: the blocking
// enqueue aborts when the context ends, and a request whose context is
// cancelled while it is still queued is completed with the context
// error instead of being dispatched — a disconnected client stops
// consuming replica time. A request already handed to the engine runs
// to completion (engine dispatches are not preemptible).
func (s *Server) SubmitMapCtx(ctx context.Context, inputs map[string]*tensor.Tensor) (*Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.lifeMu.RLock()
	if s.closed {
		s.lifeMu.RUnlock()
		return nil, fmt.Errorf("microserver: server closed")
	}
	r := &request{ctx: ctx, ins: inputs, done: make(chan struct{})}
	select {
	case s.reqs <- r:
		s.lifeMu.RUnlock()
		return &Pending{r: r}, nil
	case <-ctx.Done():
		s.lifeMu.RUnlock()
		return nil, ctx.Err()
	}
}

// Pending is a request accepted into the batching queue.
type Pending struct{ r *request }

// Wait blocks until the request's dispatch resolves.
func (p *Pending) Wait() (map[string]*tensor.Tensor, error) {
	<-p.r.done
	return p.r.outs, p.r.err
}

// Close drains the dispatcher and releases it. Requests already queued
// are completed or failed; later Infer calls fail immediately.
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
		var first *request
		select {
		case first = <-s.reqs:
		case <-s.quit:
			s.drain()
			return
		}
		// Work-conserving: fuse only what is already queued, never wait
		// for company, so batches form while the engine is busy. This
		// goroutine is the only receiver; a non-empty queue cannot block.
		pending := []*request{first}
		for len(pending) < s.cfg.MaxBatch && len(s.reqs) > 0 {
			pending = append(pending, <-s.reqs)
		}
		s.runBatch(pending)
	}
}

// drain fails any requests that were queued after shutdown began.
func (s *Server) drain() {
	for {
		select {
		case r := <-s.reqs:
			r.err = fmt.Errorf("microserver: server closed")
			close(r.done)
		default:
			return
		}
	}
}

func (s *Server) runBatch(pending []*request) {
	// Drop requests whose caller vanished while they were queued: they
	// complete with the context error and never reach the engine.
	live := pending[:0]
	cancelled := 0
	for _, r := range pending {
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				r.err = err
				close(r.done)
				cancelled++
				continue
			}
		}
		live = append(live, r)
	}
	pending = live
	if cancelled > 0 {
		s.statsMu.Lock()
		s.stats.Cancelled += int64(cancelled)
		s.statsMu.Unlock()
	}
	if len(pending) == 0 {
		return
	}
	batches := make([]map[string]*tensor.Tensor, len(pending))
	for i, r := range pending {
		batches[i] = r.ins
	}
	outs, err := s.exe.RunBatch(batches)
	// Counted before the waiters are released: a caller holding its
	// result already sees itself in Stats.
	s.statsMu.Lock()
	s.stats.Requests += int64(len(pending))
	s.stats.Batches++
	if len(pending) > s.stats.MaxBatch {
		s.stats.MaxBatch = len(pending)
	}
	s.statsMu.Unlock()
	if err != nil {
		// One malformed input fails a fused dispatch; retry requests
		// individually so only the offender sees the error.
		for i, r := range pending {
			out, rerr := s.exe.Run(batches[i])
			if rerr != nil {
				r.err = rerr
			} else {
				r.outs = out
			}
			close(r.done)
		}
	} else {
		for i, r := range pending {
			r.outs = outs[i]
			close(r.done)
		}
	}
}
