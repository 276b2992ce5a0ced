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

// BatchPolicy shapes socket-boundary coalescing: requests for the same
// (tenant, model) that arrive within a short adaptive window are stacked
// into one cluster submission so the engines run full batches instead of
// singletons. The window is rate-aware (batcher.window): it opens only
// while the observed arrival gap expects a second request inside
// MaxDelay, and tightens as load rises (batches fill before the timer).
type BatchPolicy struct {
	// MaxBatch caps the rows coalesced into one submission. 1 disables
	// coalescing (pure passthrough). Default 32.
	MaxBatch int
	// MaxDelay is the longest a request may be held for company, and the
	// arrival gap at or above which none is expected. Default 1ms.
	MaxDelay time.Duration
	// MinDelay floors the adaptive wait so a single fast client cannot
	// collapse the window to zero between its own back-to-back
	// requests. Default 20µs.
	MinDelay time.Duration
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 32
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Millisecond
	}
	if p.MinDelay <= 0 {
		p.MinDelay = 20 * time.Microsecond
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

// batcher coalesces requests for one (tenant, model) pair.
type batcher struct {
	dep    *cluster.Deployment
	policy BatchPolicy
	stats  *batchStats

	mu      sync.Mutex
	pending []batchMember
	rows    int
	sig     string
	gen     uint64
	// gapNS is the EWMA of inter-arrival gaps in nanoseconds; it drives
	// the adaptive flush delay.
	gapNS int64
	last  time.Time
}

func newBatcher(dep *cluster.Deployment, policy BatchPolicy, stats *batchStats) *batcher {
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

// add enqueues one request for coalescing. done fires exactly once,
// from a batcher goroutine, with the request's own output rows.
func (b *batcher) add(ctx context.Context, ins map[string]*tensor.Tensor, done func(map[string]*tensor.Tensor, error)) {
	sig, rows, err := shapeSig(ins)
	if err != nil {
		done(nil, err)
		return
	}
	m := batchMember{ctx: ctx, ins: ins, rows: rows, done: done}

	b.mu.Lock()
	now := time.Now()
	if !b.last.IsZero() {
		gap := int64(now.Sub(b.last))
		if b.gapNS == 0 {
			b.gapNS = gap
		} else {
			b.gapNS += (gap - b.gapNS) / 4
		}
	}
	b.last = now
	// A shape class that cannot stack with the waiting batch flushes it
	// early rather than delaying either class.
	if len(b.pending) > 0 && sig != b.sig {
		b.flushLocked()
	}
	if len(b.pending) == 0 {
		b.sig = sig
	}
	b.pending = append(b.pending, m)
	b.rows += rows
	// A full batch goes now, and so does the first member of a batch
	// that expects no company.
	delay := b.window()
	if b.rows >= b.policy.MaxBatch || (len(b.pending) == 1 && delay == 0) {
		b.flushLocked()
	} else if len(b.pending) == 1 {
		gen := b.gen
		time.AfterFunc(delay, func() {
			b.mu.Lock()
			// A generation bump means this batch already flushed (full
			// or displaced); the timer is stale.
			if b.gen == gen && len(b.pending) > 0 {
				b.flushLocked()
			}
			b.mu.Unlock()
		})
	}
	b.mu.Unlock()
}

// window is the rate-aware rule: how long the first member of a new
// batch is held for company. Zero (submit at once, no timer) unless the
// gap EWMA expects a second request inside MaxDelay, so a sparse or new
// stream never waits for company that is not coming; otherwise roughly
// the time MaxBatch-1 more arrivals take at the current rate, clamped
// to the policy bounds. Callers hold b.mu.
func (b *batcher) window() time.Duration {
	gap := time.Duration(b.gapNS)
	if gap <= 0 || gap >= b.policy.MaxDelay {
		return 0
	}
	delay := gap * time.Duration(b.policy.MaxBatch-1)
	if delay < b.policy.MinDelay {
		delay = b.policy.MinDelay
	}
	if delay > b.policy.MaxDelay {
		delay = b.policy.MaxDelay
	}
	return delay
}

// flushLocked hands the waiting batch to a submission goroutine.
// Callers hold b.mu.
func (b *batcher) flushLocked() {
	members := b.pending
	b.pending = nil
	b.rows = 0
	b.gen++
	go b.submit(members)
}

// submit stacks the members' inputs, routes one cluster submission and
// splits the output rows back to each member.
func (b *batcher) submit(members []batchMember) {
	if len(members) == 0 {
		return
	}
	b.stats.batches.Add(1)
	totalRows := 0
	for _, m := range members {
		totalRows += m.rows
	}
	b.stats.rows.Add(int64(totalRows))

	// Single member: passthrough, keeping the member's context so
	// cancellation still reaches the queue.
	if len(members) == 1 {
		m := members[0]
		outs, err := b.dep.InferCtx(m.ctx, m.ins)
		m.done(outs, err)
		return
	}

	ins, err := stackInputs(members, totalRows)
	if err != nil {
		for _, m := range members {
			m.done(nil, err)
		}
		return
	}
	// A merged batch runs under a background context: one member's
	// disconnect must not cancel the rest of the batch.
	outs, err := b.dep.InferCtx(context.Background(), ins)
	if err != nil {
		for _, m := range members {
			m.done(nil, err)
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
