package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/tensor"
)

// DefaultTenant is the tenant name used in open mode (no API keys).
const DefaultTenant = "default"

// RetryAfter is the retry hint attached to shed requests.
const RetryAfter = 2 * time.Millisecond

// Config shapes a listener.
type Config struct {
	// Keys maps API key -> tenant name. Nil runs the server in open
	// mode: no handshake required, every connection serves tenant
	// "default". Empty (non-nil) rejects everyone.
	Keys map[string]string
	// Batch is the socket-boundary coalescing policy.
	Batch BatchPolicy
	// MaxFrame bounds a frame body in bytes. Default 16MB.
	MaxFrame int
}

func (c Config) withDefaults() Config {
	c.Batch = c.Batch.withDefaults()
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// ServerStats is a server's cumulative ingestion telemetry.
type ServerStats struct {
	// Conns is the number of currently open connections.
	Conns int64
	// Accepted counts connections accepted over the server's life.
	Accepted int64
	// Requests counts decoded inference requests.
	Requests int64
	// Overloaded counts requests shed with a retry-after reply.
	Overloaded int64
	// Unauthorized counts rejected keys (handshake or per-request).
	Unauthorized int64
	// BadRequest counts undecodable or malformed requests.
	BadRequest int64
	// Errors counts engine-side failures surfaced to clients.
	Errors int64
	// Batches counts coalesced cluster submissions.
	Batches int64
	// BatchedRows counts the rows those submissions carried.
	BatchedRows int64
	// MeanBatch is BatchedRows / Batches.
	MeanBatch float64
}

// Server is a framed-TCP ingestion front end over a cluster scheduler.
type Server struct {
	ln    net.Listener
	sched *cluster.Scheduler
	cfg   Config

	mu       sync.Mutex
	batchers map[string]*batcher
	conns    map[net.Conn]struct{}
	closed   bool

	wg    sync.WaitGroup
	batch batchStats

	accepted     atomic.Int64
	requests     atomic.Int64
	overloaded   atomic.Int64
	unauthorized atomic.Int64
	badRequest   atomic.Int64
	errs         atomic.Int64
}

// Listen starts a framed-TCP server on addr (e.g. "127.0.0.1:0") over
// the scheduler. The returned server accepts until Close.
func Listen(addr string, sched *cluster.Scheduler, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:       ln,
		sched:    sched,
		cfg:      cfg.withDefaults(),
		batchers: make(map[string]*batcher),
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's resolved address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs open connections and waits for the
// connection handlers to drain. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Stats snapshots the server's ingestion telemetry.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	conns := int64(len(s.conns))
	s.mu.Unlock()
	st := ServerStats{
		Conns:        conns,
		Accepted:     s.accepted.Load(),
		Requests:     s.requests.Load(),
		Overloaded:   s.overloaded.Load(),
		Unauthorized: s.unauthorized.Load(),
		BadRequest:   s.badRequest.Load(),
		Errors:       s.errs.Load(),
		Batches:      s.batch.batches.Load(),
		BatchedRows:  s.batch.rows.Load(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.BatchedRows) / float64(st.Batches)
	}
	return st
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.accepted.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// batcherFor resolves the (tenant, model) batcher, creating it on first
// use.
func (s *Server) batcherFor(tenant, model string) (*batcher, error) {
	key := tenant + "\x00" + model
	s.mu.Lock()
	if b, ok := s.batchers[key]; ok {
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()
	dep, err := s.sched.Deployment(model)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.batchers[key]; ok {
		return b, nil
	}
	b := newBatcher(deployment{dep}, dep.InputNames(), dep.InputShapes(), s.cfg.Batch, &s.batch)
	s.batchers[key] = b
	return b, nil
}

// tenantFor resolves an API key to a tenant.
func (s *Server) tenantFor(key string) (string, bool) {
	if s.cfg.Keys == nil {
		return DefaultTenant, true
	}
	tenant, ok := s.cfg.Keys[key]
	return tenant, ok
}

// serveConn runs one connection: a reader goroutine (this one) decoding
// frames and a writer goroutine draining the outbound queue, with a
// per-connection context cancelled the moment the peer disappears so
// queued work stops consuming replica time.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan []byte, 256)

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for {
			select {
			case b := <-out:
				_, err := conn.Write(b)
				putBuf(b)
				if err != nil {
					// A dead peer: cancel queued work and unblock the
					// reader too.
					cancel()
					conn.Close()
				}
			case <-ctx.Done():
				for {
					select {
					case b := <-out:
						putBuf(b)
					default:
						return
					}
				}
			}
		}
	}()

	// send hands a finished frame to the writer, dropping it if the
	// connection is already gone.
	send := func(b []byte) {
		select {
		case out <- b:
		case <-ctx.Done():
			putBuf(b)
		}
	}

	// inflight tracks outstanding request completions so cleanup can
	// wait for their callbacks before the writer drains away.
	var inflight sync.WaitGroup

	defer func() {
		cancel()
		conn.Close()
		inflight.Wait()
		writerWG.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	tenant := DefaultTenant
	authed := s.cfg.Keys == nil
	fr := newFrameReader(conn, s.cfg.MaxFrame)
	for {
		f, err := fr.next()
		if err != nil {
			return
		}
		switch f.typ {
		case TypeHello:
			key, err := f.body.str()
			if err != nil {
				// Written synchronously: the deferred teardown would
				// race the writer and drop a queued refusal. No
				// completions are in flight during the handshake, so a
				// direct write cannot interleave with the writer.
				writeDirect(conn, errorReply(f.id, StatusBadRequest, "malformed hello"))
				return
			}
			t, ok := s.tenantFor(key)
			if !ok {
				s.unauthorized.Add(1)
				writeDirect(conn, errorReply(f.id, StatusUnauthorized, "unknown api key"))
				return
			}
			tenant, authed = t, true
			b := beginFrame(TypeHelloOK, f.id, 2+len(tenant))
			b = appendString(b, tenant)
			send(finishFrame(b))
		case TypeRequest:
			if !authed {
				s.unauthorized.Add(1)
				send(errorReply(f.id, StatusUnauthorized, "hello required"))
				continue
			}
			s.requests.Add(1)
			model, err := f.body.str()
			if err != nil {
				s.badRequest.Add(1)
				send(errorReply(f.id, StatusBadRequest, "malformed request"))
				continue
			}
			ins, err := f.body.tensorMap()
			if err != nil {
				s.badRequest.Add(1)
				send(errorReply(f.id, StatusBadRequest, err.Error()))
				continue
			}
			b, err := s.batcherFor(tenant, model)
			if err != nil {
				s.badRequest.Add(1)
				send(errorReply(f.id, StatusBadRequest, err.Error()))
				continue
			}
			id := f.id
			inflight.Add(1)
			b.add(ctx, ins, func(outs map[string]*tensor.Tensor, err error) {
				defer inflight.Done()
				send(s.encodeReply(id, outs, err))
			})
		default:
			send(errorReply(f.id, StatusBadRequest, "unknown frame type"))
		}
	}
}

// classify maps a completion error to its protocol status and does the
// counting both adapters share: inputs the model's signature refuses are
// BadRequest, a shed is Overloaded, an engine-side failure is Errors,
// and shutdown or a vanished caller is none of them.
func (s *Server) classify(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, inference.ErrBadInput):
		s.badRequest.Add(1)
		return StatusBadRequest
	case errors.Is(err, cluster.ErrOverloaded):
		s.overloaded.Add(1)
		return StatusOverloaded
	case errors.Is(err, cluster.ErrClosed):
		return StatusShuttingDown
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller vanished; the reply has nowhere to go.
		return StatusError
	default:
		s.errs.Add(1)
		return StatusError
	}
}

// encodeReply turns one completion into a reply frame.
func (s *Server) encodeReply(id uint64, outs map[string]*tensor.Tensor, err error) []byte {
	switch status := s.classify(err); status {
	case StatusOK:
		b := beginFrame(TypeReply, id, 64)
		b = append(b, StatusOK)
		b, encErr := appendTensorMap(b, outs)
		if encErr != nil {
			putBuf(b)
			s.errs.Add(1)
			return errorReply(id, StatusError, encErr.Error())
		}
		return finishFrame(b)
	case StatusOverloaded:
		b := beginFrame(TypeReply, id, 5)
		b = append(b, StatusOverloaded)
		b = binary.LittleEndian.AppendUint32(b, uint32(RetryAfter.Milliseconds()))
		return finishFrame(b)
	case StatusShuttingDown:
		return errorReply(id, StatusShuttingDown, "fleet shutting down")
	default:
		return errorReply(id, status, err.Error())
	}
}

// writeDirect writes one frame synchronously and recycles its buffer.
func writeDirect(conn net.Conn, b []byte) {
	conn.Write(b)
	putBuf(b)
}

// errorReply builds a non-OK reply with a u16-length-prefixed message.
func errorReply(id uint64, status byte, msg string) []byte {
	b := beginFrame(TypeReply, id, 3+len(msg))
	b = append(b, status)
	b = appendString(b, msg)
	return finishFrame(b)
}
