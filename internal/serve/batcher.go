package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vedliot/internal/cluster"
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
// next submission would be routed to is idle, and the submission.
type fleet interface {
	Idle() bool
	SubmitCtx(ctx context.Context, ins map[string]*tensor.Tensor) (ticket, error)
}

// ticket is an admitted submission; WaitCtx blocks for its result.
type ticket interface {
	WaitCtx(ctx context.Context) (map[string]*tensor.Tensor, error)
}

// deployment adapts *cluster.Deployment to fleet.
type deployment struct{ *cluster.Deployment }

func (d deployment) SubmitCtx(ctx context.Context, ins map[string]*tensor.Tensor) (ticket, error) {
	tk, err := d.Deployment.SubmitCtx(ctx, ins)
	if err != nil {
		return nil, err
	}
	return tk, nil
}

// batcher coalesces requests for one (tenant, model) pair.
type batcher struct {
	dep    fleet
	policy BatchPolicy
	stats  *batchStats

	mu      sync.Mutex
	pending []batchMember
	rows    int
	sig     string
	// timer bounds the held batch's wait at MaxDelay; nil while nothing
	// is held.
	timer *time.Timer
	// submitting counts batches that have left pending and are not yet
	// through SubmitCtx, where the replica's own in-flight count takes
	// over: without it two concurrent adds would both see one idle
	// replica. Raised under mu, lowered without it.
	submitting atomic.Int32
}

func newBatcher(dep fleet, policy BatchPolicy, stats *batchStats) *batcher {
	return &batcher{dep: dep, policy: policy.withDefaults(), stats: stats}
}

// shapeSig fingerprints a request's batch-compatibility class: the
// sorted input names with their non-leading dimensions. Requests with
// the same signature stack along the leading dimension.
func shapeSig(ins map[string]*tensor.Tensor) (string, int, error) {
	names := make([]string, 0, len(ins))
	for name := range ins {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	rows := 0
	for _, name := range names {
		t := ins[name]
		if t == nil || t.DType != tensor.FP32 {
			return "", 0, fmt.Errorf("serve: input %q is not FP32", name)
		}
		r := 1
		rest := tensor.Shape(nil)
		if len(t.Shape) > 0 {
			r = t.Shape[0]
			rest = t.Shape[1:]
		}
		if r < 1 {
			return "", 0, fmt.Errorf("serve: input %q has empty batch dimension", name)
		}
		if rows == 0 {
			rows = r
		} else if r != rows {
			return "", 0, fmt.Errorf("serve: input %q carries %d rows, other inputs %d", name, r, rows)
		}
		sb.WriteString(name)
		sb.WriteByte('[')
		for _, d := range rest {
			sb.WriteString(strconv.Itoa(d))
			sb.WriteByte(',')
		}
		sb.WriteByte(']')
	}
	if rows == 0 {
		rows = 1
	}
	return sb.String(), rows, nil
}

// add enqueues one request for coalescing. done fires exactly once with
// the request's own output rows. When the routed replica is idle the
// submission happens here, on the caller's goroutine.
func (b *batcher) add(ctx context.Context, ins map[string]*tensor.Tensor, done func(map[string]*tensor.Tensor, error)) {
	sig, rows, err := shapeSig(ins)
	if err != nil {
		done(nil, err)
		return
	}
	m := batchMember{ctx: ctx, ins: ins, rows: rows, done: done}

	b.mu.Lock()
	// A shape class that cannot stack with the waiting batch flushes it
	// early rather than delaying either class.
	var displaced []batchMember
	if len(b.pending) > 0 && sig != b.sig {
		displaced = b.takeLocked()
	}
	if len(b.pending) == 0 {
		b.sig = sig
	}
	b.pending = append(b.pending, m)
	b.rows += rows
	var batch []batchMember
	switch {
	case b.rows >= b.policy.MaxBatch, b.submitting.Load() == 0 && b.dep.Idle():
		batch = b.takeLocked()
	case b.timer == nil:
		b.holdLocked()
	}
	b.mu.Unlock()
	b.submit(displaced)
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

// submit stacks the members' inputs and routes one cluster submission
// on the calling goroutine; a goroutine per admitted batch then waits
// for the replica and splits the output rows back to each member.
func (b *batcher) submit(members []batchMember) {
	if len(members) == 0 {
		return
	}
	totalRows := 0
	for _, m := range members {
		totalRows += m.rows
	}

	// A single member keeps its own context so cancellation still
	// reaches the queue; a merged batch runs under a background one, so
	// one member's disconnect cannot cancel the rest.
	ctx, ins := members[0].ctx, members[0].ins
	var err error
	if len(members) > 1 {
		ctx = context.Background()
		ins, err = stackInputs(members, totalRows)
	}
	var tk ticket
	if err == nil {
		tk, err = b.dep.SubmitCtx(ctx, ins)
	}
	b.submitting.Add(-1)
	if err != nil {
		for _, m := range members {
			m.done(nil, err)
		}
		return
	}
	// Counted once admitted: a submission the scheduler shed never became
	// a batch, and overload must not read as coalescing.
	b.stats.batches.Add(1)
	b.stats.rows.Add(int64(totalRows))
	go b.deliver(ctx, tk, members, totalRows)
}

// deliver waits for one submission. Its completion is the capacity
// signal: the batch held meanwhile goes first, then the replies.
func (b *batcher) deliver(ctx context.Context, tk ticket, members []batchMember, totalRows int) {
	outs, err := tk.WaitCtx(ctx)
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
		part, err := sliceRows(outs, row, m.rows, totalRows)
		m.done(part, err)
		row += m.rows
	}
}

// stackInputs concatenates each input across members along the leading
// dimension. Shape compatibility is guaranteed by the batcher's
// signature check.
func stackInputs(members []batchMember, totalRows int) (map[string]*tensor.Tensor, error) {
	stacked := make(map[string]*tensor.Tensor, len(members[0].ins))
	for name, first := range members[0].ins {
		rest := tensor.Shape(nil)
		if len(first.Shape) > 0 {
			rest = first.Shape[1:]
		}
		shape := append(tensor.Shape{totalRows}, rest...)
		out := tensor.New(tensor.FP32, shape...)
		off := 0
		for _, m := range members {
			t := m.ins[name]
			if t == nil {
				return nil, fmt.Errorf("serve: batch member missing input %q", name)
			}
			off += copy(out.F32[off:], t.F32)
		}
		if off != len(out.F32) {
			return nil, fmt.Errorf("serve: input %q stacked %d of %d elements", name, off, len(out.F32))
		}
		stacked[name] = out
	}
	return stacked, nil
}

// sliceRows extracts one member's rows from each batched output.
func sliceRows(outs map[string]*tensor.Tensor, row, rows, totalRows int) (map[string]*tensor.Tensor, error) {
	part := make(map[string]*tensor.Tensor, len(outs))
	for name, t := range outs {
		if len(t.Shape) == 0 || t.Shape[0] != totalRows {
			return nil, fmt.Errorf("serve: output %q shape %v does not carry the %d batched rows", name, t.Shape, totalRows)
		}
		rowSize := t.NumElements() / totalRows
		shape := append(tensor.Shape{rows}, t.Shape[1:]...)
		slice := tensor.New(tensor.FP32, shape...)
		copy(slice.F32, t.F32[row*rowSize:(row+rows)*rowSize])
		part[name] = slice
	}
	return part, nil
}
