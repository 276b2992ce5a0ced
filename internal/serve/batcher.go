package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/tensor"
)

// BatchPolicy shapes socket-boundary coalescing. The rule asks the
// router, not the arrival rate: a request is submitted at once unless
// the replica the routing rule would pick already has work in flight,
// and only then is it held so that requests for the same (tenant,
// model) share one cluster submission. A held batch goes when one
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

// batchStats aggregates coalescing telemetry across batchers.
type batchStats struct {
	batches atomic.Int64
	rows    atomic.Int64
}

// fleet is what a batcher asks of a deployment: whether the replica the
// next submission would be routed to is idle, and the submission, whose
// done runs once before its records' own completions unless SubmitCtx
// returns an error. *cluster.Deployment is one.
type fleet interface {
	Idle() bool
	SubmitCtx(reqs []*microserver.Request, done func()) error
}

// batcher coalesces requests for one (tenant, model) pair. A record
// joins only after inference.CheckInputs has passed it against the
// model's declared inputs, so everything pending is one shape class.
type batcher struct {
	dep    fleet
	names  []string       // the model's declared inputs
	per    []tensor.Shape // and their per-sample shapes
	policy BatchPolicy
	stats  *batchStats

	mu      sync.Mutex
	pending []*microserver.Request
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

// add enqueues one record for coalescing. Its Done fires exactly once:
// with the request's own output rows, or at once with an
// inference.ErrBadInput when the model's signature refuses the inputs,
// which leaves whatever is held untouched. When the routed replica is
// idle the submission happens here, on the caller's goroutine.
func (b *batcher) add(q *microserver.Request) {
	rows, err := inference.CheckInputs(b.names, b.per, q.Ins)
	if err != nil {
		q.Done(nil, err)
		return
	}
	b.mu.Lock()
	b.pending = append(b.pending, q)
	b.rows += rows
	var batch []*microserver.Request
	switch {
	case b.rows >= b.policy.MaxBatch, b.submitting.Load() == 0 && b.dep.Idle():
		batch, rows = b.takeLocked()
	case b.timer == nil:
		b.holdLocked()
	}
	b.mu.Unlock()
	b.submit(batch, rows)
}

// holdLocked bounds the wait of the batch that starts waiting now at
// MaxDelay. Callers hold b.mu.
func (b *batcher) holdLocked() {
	var t *time.Timer
	t = time.AfterFunc(b.policy.MaxDelay, func() {
		b.mu.Lock()
		var batch []*microserver.Request
		var rows int
		// A timer can fire too late to be stopped; the batch it bounded
		// has left then and b.timer is nil or a later batch's.
		if b.timer == t {
			batch, rows = b.takeLocked()
		}
		b.mu.Unlock()
		b.submit(batch, rows)
	})
	b.timer = t
}

// takeLocked removes the waiting batch and its rows for submission,
// counting it in flight from here on and stopping its timer. Nil when
// nothing waits. Callers hold b.mu and pass the result to submit after
// releasing it.
func (b *batcher) takeLocked() ([]*microserver.Request, int) {
	if len(b.pending) == 0 {
		return nil, 0
	}
	batch, rows := b.pending, b.rows
	b.pending, b.rows = nil, 0
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.submitting.Add(1)
	return batch, rows
}

// submit hands the batch to the fleet as one submission, on the calling
// goroutine; the fleet owns the slice from then on. Its done is the
// capacity signal and runs before any record's Done, so the batch held
// meanwhile leaves before the replies are queued.
func (b *batcher) submit(batch []*microserver.Request, rows int) {
	if len(batch) == 0 {
		return
	}
	err := b.dep.SubmitCtx(batch, func() {
		// Counted once admitted, which is when done runs at all: a
		// submission the scheduler shed never became a batch, and
		// overload must not read as coalescing.
		b.stats.batches.Add(1)
		b.stats.rows.Add(int64(rows))
		b.mu.Lock()
		held, heldRows := b.takeLocked()
		b.mu.Unlock()
		b.submit(held, heldRows)
	})
	b.submitting.Add(-1)
	if err != nil {
		for _, q := range batch {
			q.Done(nil, err)
		}
	}
}
