package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/tensor"
)

// BatchPolicy shapes socket-boundary coalescing. The rule asks the
// router, not the arrival rate: a request is submitted at once unless
// the replica the routing rule would pick already has work in flight,
// and only then is it held so that requests for the same (tenant,
// model) stack into one cluster submission. A held batch goes when one
// of this batcher's own submissions completes, when its rows reach
// MaxBatch, or after MaxDelay, whichever is first; so nothing waits
// while capacity is free, and busy replicas still run full batches.
type BatchPolicy struct {
	// MaxBatch caps the rows coalesced into one submission. 1 disables
	// coalescing (pure passthrough). Default 32.
	MaxBatch int
	// MaxDelay is the longest a request may be held while every replica
	// it could go to is busy. Default 1ms.
	MaxDelay time.Duration
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 32
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Millisecond
	}
	return p
}

// batchMember is one request riding a coalesced submission.
type batchMember struct {
	ctx  context.Context
	ins  map[string]*tensor.Tensor
	rows int
	done func(outs map[string]*tensor.Tensor, err error)
}

// batchStats aggregates coalescing telemetry across batchers.
type batchStats struct {
	batches atomic.Int64
	rows    atomic.Int64
}

// fleet is what a batcher asks of a deployment: whether the replica the
// next submission would be routed to is idle, and the submission, whose
// done runs once on whichever goroutine completes it unless SubmitCtx
// returns an error. *cluster.Deployment is one.
type fleet interface {
	Idle() bool
	SubmitCtx(ctx context.Context, ins map[string]*tensor.Tensor, done func(map[string]*tensor.Tensor, error)) error
}

// batcher coalesces requests for one (tenant, model) pair. A request
// joins only after inference.CheckInputs has passed it against the
// model's declared inputs, so everything pending is one shape class and
// stacks.
type batcher struct {
	dep    fleet
	names  []string       // the model's declared inputs
	per    []tensor.Shape // and their per-sample shapes
	policy BatchPolicy
	stats  *batchStats

	mu      sync.Mutex
	pending []batchMember
	rows    int
	// timer bounds the held batch's wait at MaxDelay; nil while nothing
	// is held.
	timer *time.Timer
	// submitting counts batches that have left pending and are not yet
	// through SubmitCtx, where the replica's own in-flight count takes
	// over: without it two concurrent adds would both see one idle
	// replica. Raised under mu, lowered without it.
	submitting atomic.Int32
}

func newBatcher(dep fleet, names []string, per []tensor.Shape, policy BatchPolicy, stats *batchStats) *batcher {
	return &batcher{dep: dep, names: names, per: per, policy: policy.withDefaults(), stats: stats}
}

// add enqueues one request for coalescing. done fires exactly once: with
// the request's own output rows, or at once with an
// inference.ErrBadInput when the model's signature refuses the inputs,
// which leaves whatever is held untouched. When the routed replica is
// idle the submission happens here, on the caller's goroutine.
func (b *batcher) add(ctx context.Context, ins map[string]*tensor.Tensor, done func(map[string]*tensor.Tensor, error)) {
	rows, err := inference.CheckInputs(b.names, b.per, ins)
	if err != nil {
		done(nil, err)
		return
	}
	b.mu.Lock()
	b.pending = append(b.pending, batchMember{ctx: ctx, ins: ins, rows: rows, done: done})
	b.rows += rows
	var batch []batchMember
	switch {
	case b.rows >= b.policy.MaxBatch, b.submitting.Load() == 0 && b.dep.Idle():
		batch = b.takeLocked()
	case b.timer == nil:
		b.holdLocked()
	}
	b.mu.Unlock()
	b.submit(batch)
}

// holdLocked bounds the wait of the batch that starts waiting now at
// MaxDelay. Callers hold b.mu.
func (b *batcher) holdLocked() {
	var t *time.Timer
	t = time.AfterFunc(b.policy.MaxDelay, func() {
		b.mu.Lock()
		var batch []batchMember
		// A timer can fire too late to be stopped; the batch it bounded
		// has left then and b.timer is nil or a later batch's.
		if b.timer == t {
			batch = b.takeLocked()
		}
		b.mu.Unlock()
		b.submit(batch)
	})
	b.timer = t
}

// takeLocked removes the waiting batch for submission, counting it in
// flight from here on and stopping its timer. Nil when nothing waits.
// Callers hold b.mu and pass the result to submit after releasing it.
func (b *batcher) takeLocked() []batchMember {
	if len(b.pending) == 0 {
		return nil
	}
	members := b.pending
	b.pending, b.rows = nil, 0
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.submitting.Add(1)
	return members
}

// submit stacks the members' declared inputs and routes one cluster
// submission on the calling goroutine; deliver is its completion.
func (b *batcher) submit(members []batchMember) {
	if len(members) == 0 {
		return
	}
	// A single member keeps its own context so cancellation still
	// reaches the queue; a merged batch runs under a background one, so
	// one member's disconnect cannot cancel the rest.
	ctx, ins := members[0].ctx, members[0].ins
	if len(members) > 1 {
		ctx = context.Background()
		reqs := make([]map[string]*tensor.Tensor, len(members))
		for i, m := range members {
			reqs[i] = m.ins
		}
		ins = tensor.StackRows(b.names, reqs)
	}
	err := b.dep.SubmitCtx(ctx, ins, func(outs map[string]*tensor.Tensor, err error) {
		// Counted once admitted, which is when done runs at all: a
		// submission the scheduler shed never became a batch, and
		// overload must not read as coalescing. The rows are the
		// submitted map's, which the check holds to the members' sum.
		b.stats.batches.Add(1)
		b.stats.rows.Add(int64(ins[b.names[0]].Shape[0]))
		b.deliver(members, outs, err)
	})
	b.submitting.Add(-1)
	if err != nil {
		for _, m := range members {
			m.done(nil, err)
		}
	}
}

// deliver completes one submission, on whichever goroutine completed it
// (a replica's dispatcher in a fleet), so the members' done calls must
// not block. The completion is the capacity signal: the batch held
// meanwhile goes first, then the replies. A member of a merged batch
// gets row views of the batched outputs, which are fresh per submission
// and only read from here on.
func (b *batcher) deliver(members []batchMember, outs map[string]*tensor.Tensor, err error) {
	b.mu.Lock()
	held := b.takeLocked()
	b.mu.Unlock()
	b.submit(held)

	if err != nil || len(members) == 1 {
		for _, m := range members {
			m.done(outs, err)
		}
		return
	}
	row := 0
	for _, m := range members {
		m.done(tensor.RowViews(outs, row, row+m.rows), nil)
		row += m.rows
	}
}
