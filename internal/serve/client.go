package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vedliot/internal/tensor"
)

// ErrUnauthorized is returned when the server rejects the client's API
// key.
var ErrUnauthorized = errors.New("serve: unauthorized")

// ErrShuttingDown is returned when the fleet behind the server is
// draining.
var ErrShuttingDown = errors.New("serve: server shutting down")

// RetryAfterError is the client-side face of shed load: the server
// refused the request and hinted when to retry.
type RetryAfterError struct {
	// After is the server's retry hint.
	After time.Duration
}

// Error implements the error interface.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("serve: overloaded, retry after %v", e.After)
}

// clientReply is one decoded reply delivered to a waiting call.
type clientReply struct {
	outs map[string]*tensor.Tensor
	err  error
}

// Client is one framed-TCP connection to a serve.Server. It is safe for
// concurrent use: calls are multiplexed over the connection by request
// id.
type Client struct {
	conn   net.Conn
	tenant string

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan clientReply
	err     error

	nextID atomic.Uint64
	wg     sync.WaitGroup
}

// Dial connects and performs the Hello handshake with the given API key
// (empty for open-mode servers). The connect and the handshake are
// bounded by writeTimeout, so a peer that accepts and then stays silent
// fails the dial instead of holding it.
func Dial(addr, key string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, writeTimeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(writeTimeout))
	c := &Client{conn: conn, pending: make(map[uint64]chan clientReply)}
	b := beginFrame(TypeHello, 0, 2+len(key))
	b = appendString(b, key)
	if _, err := conn.Write(finishFrame(b)); err != nil {
		putBuf(b)
		conn.Close()
		return nil, fmt.Errorf("serve: hello: %w", err)
	}
	putBuf(b)
	fr := newFrameReader(conn, DefaultMaxFrame)
	f, err := fr.next()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: hello reply: %w", err)
	}
	switch f.typ {
	case TypeHelloOK:
		tenant, err := f.body.str()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("serve: hello reply: %w", err)
		}
		c.tenant = tenant
		conn.SetDeadline(time.Time{})
	case TypeReply:
		status, _ := f.body.u8()
		conn.Close()
		if status == StatusUnauthorized {
			return nil, ErrUnauthorized
		}
		return nil, fmt.Errorf("serve: hello refused with status %d", status)
	default:
		conn.Close()
		return nil, fmt.Errorf("serve: unexpected hello reply type %d", f.typ)
	}
	c.wg.Add(1)
	go c.readLoop(fr)
	return c, nil
}

// Tenant reports the tenant the server resolved for this connection.
func (c *Client) Tenant() string { return c.tenant }

// Close severs the connection; outstanding calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// readLoop decodes replies and routes them to waiting calls by id.
func (c *Client) readLoop(fr *frameReader) {
	defer c.wg.Done()
	for {
		f, err := fr.next()
		if err != nil {
			c.fail(fmt.Errorf("serve: connection lost: %w", err))
			return
		}
		if f.typ != TypeReply {
			continue
		}
		rep := decodeReply(&f.body)
		c.mu.Lock()
		ch, ok := c.pending[f.id]
		if ok {
			delete(c.pending, f.id)
		}
		c.mu.Unlock()
		if ok {
			ch <- rep
		}
	}
}

// decodeReply maps a reply frame body to outputs or a typed error.
func decodeReply(d *decoder) clientReply {
	status, err := d.u8()
	if err != nil {
		return clientReply{err: fmt.Errorf("serve: truncated reply: %w", err)}
	}
	switch status {
	case StatusOK:
		outs, err := d.tensorMap()
		if err != nil {
			return clientReply{err: fmt.Errorf("serve: bad reply payload: %w", err)}
		}
		return clientReply{outs: outs}
	case StatusOverloaded:
		ms, err := d.u32()
		if err != nil {
			return clientReply{err: fmt.Errorf("serve: bad overload reply: %w", err)}
		}
		return clientReply{err: &RetryAfterError{After: time.Duration(ms) * time.Millisecond}}
	case StatusUnauthorized:
		return clientReply{err: ErrUnauthorized}
	case StatusShuttingDown:
		return clientReply{err: ErrShuttingDown}
	default:
		msg, _ := d.str()
		return clientReply{err: fmt.Errorf("serve: request failed (status %d): %s", status, msg)}
	}
}

// fail resolves every outstanding call with the connection error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan clientReply)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- clientReply{err: err}
	}
}

// InferCtx sends one request and blocks for its reply or the context.
// The write is bounded by writeTimeout: a write that misses it closes
// the connection, which fails every pending call, since a half-written
// frame cannot be resumed.
func (c *Client) InferCtx(ctx context.Context, model string, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	id := c.nextID.Add(1)
	ch := make(chan clientReply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	b := beginFrame(TypeRequest, id, 2+len(model)+tensorMapSize(ins))
	b = appendString(b, model)
	b, err := appendTensorMap(b, ins)
	if err != nil {
		putBuf(b)
		c.forget(id)
		return nil, err
	}
	b = finishFrame(b)
	c.wmu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err = c.conn.Write(b)
	if err != nil {
		c.conn.Close()
	}
	c.wmu.Unlock()
	putBuf(b)
	if err != nil {
		c.forget(id)
		return nil, fmt.Errorf("serve: send: %w", err)
	}

	select {
	case rep := <-ch:
		return rep.outs, rep.err
	case <-ctx.Done():
		c.forget(id)
		return nil, ctx.Err()
	}
}

// forget abandons one pending call (late replies are dropped).
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Pool fans calls out over several connections round-robin, hiding
// single-connection write serialization from high-concurrency load.
type Pool struct {
	clients []*Client
	next    atomic.Uint64
}

// DialPool opens n connections with the same key.
func DialPool(addr, key string, n int) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{clients: make([]*Client, 0, n)}
	for i := 0; i < n; i++ {
		c, err := Dial(addr, key)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// InferCtx routes one request over the next connection in the pool.
func (p *Pool) InferCtx(ctx context.Context, model string, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	c := p.clients[p.next.Add(1)%uint64(len(p.clients))]
	return c.InferCtx(ctx, model, ins)
}

// Close severs every pooled connection.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
