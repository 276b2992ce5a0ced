package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Trace is a synthetic open-loop arrival process: request arrival
// offsets from the start of the replay, sorted ascending. Open-loop
// means arrivals do not wait for completions — the load a fleet sees
// from independent clients, and the regime where queueing (not
// per-request latency) dominates.
type Trace struct {
	Arrivals []time.Duration
}

// OpenLoopTrace builds a deterministic pseudo-Poisson trace: n arrivals
// at the given mean rate (requests/second) with exponential
// inter-arrival gaps drawn from the seed.
func OpenLoopTrace(n int, rate float64, seed int64) Trace {
	if n <= 0 || rate <= 0 {
		return Trace{}
	}
	rng := rand.New(rand.NewSource(seed))
	mean := float64(time.Second) / rate
	var t time.Duration
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		t += time.Duration(rng.ExpFloat64() * mean)
		arrivals[i] = t
	}
	return Trace{Arrivals: arrivals}
}

// Duration returns the trace's span (last arrival offset).
func (tr Trace) Duration() time.Duration {
	if len(tr.Arrivals) == 0 {
		return 0
	}
	return tr.Arrivals[len(tr.Arrivals)-1]
}

// SimReplica is one fleet member in the analytic trace simulation: a
// fixed per-request service time plus the module power envelope.
type SimReplica struct {
	Name    string
	Service time.Duration
	// PerItem is the marginal cost of each extra sample in a coalesced
	// batch: a batch of n serves in Service + (n-1)*PerItem. Zero means
	// the replica gains nothing from batching (a batch of n costs
	// n*Service), which is the right model for an engine that would
	// just loop.
	PerItem time.Duration
	IdleW   float64
	MaxW    float64
}

// batchService is the virtual-time cost of serving n coalesced samples.
func (f SimReplica) batchService(n int) time.Duration {
	if n <= 1 {
		return f.Service
	}
	if f.PerItem > 0 {
		return f.Service + time.Duration(n-1)*f.PerItem
	}
	return time.Duration(n) * f.Service
}

// SimFleet derives the simulation view of a live deployment: each
// replica's current service estimate (roofline prediction or observed
// EWMA) and its module power envelope.
func SimFleet(d *Deployment) []SimReplica {
	fleet := make([]SimReplica, 0, len(d.replicas))
	for _, r := range d.replicas {
		fleet = append(fleet, SimReplica{
			Name:    fmt.Sprintf("%d:%s", r.slot, r.module),
			Service: r.ServiceEstimate(),
			IdleW:   r.idleW,
			MaxW:    r.maxW,
		})
	}
	return fleet
}

// SimReplicaResult is one replica's share of a simulated replay.
type SimReplicaResult struct {
	Name   string
	Served int
	// Busy is the fraction of the makespan the replica spent serving.
	Busy float64
}

// SimResult is the outcome of one simulated trace replay.
type SimResult struct {
	Requests int
	// Makespan spans the first arrival to the last completion.
	Makespan time.Duration
	// Throughput is completed requests per second of makespan.
	Throughput float64
	Latency    LatencySummary
	// EnergyJ integrates the fleet power model over the makespan:
	// idle power throughout plus the dynamic span while serving.
	EnergyJ    float64
	PerReplica []SimReplicaResult
}

// SimulateTrace replays the trace against an analytic fleet model with
// the scheduler's routing rule (earliest estimated completion, power
// tie-break) in virtual time. The simulation is exact for fixed service
// times, machine-independent and instantaneous, so throughput-scaling
// claims do not depend on the host the harness happens to run on.
func SimulateTrace(fleet []SimReplica, tr Trace) (SimResult, error) {
	if len(fleet) == 0 {
		return SimResult{}, fmt.Errorf("cluster: simulate: empty fleet")
	}
	for _, f := range fleet {
		if f.Service <= 0 {
			return SimResult{}, fmt.Errorf("cluster: simulate: replica %s has no service time", f.Name)
		}
	}
	freeAt := make([]time.Duration, len(fleet))
	busy := make([]time.Duration, len(fleet))
	served := make([]int, len(fleet))
	lats := make([]time.Duration, 0, len(tr.Arrivals))
	var makespan time.Duration
	for _, t := range tr.Arrivals {
		// Cost is the completion time on each replica: the later of the
		// arrival and the replica coming free, plus one service time.
		comp := func(j int) time.Duration { return max(t, freeAt[j]) + fleet[j].Service }
		best := cheapest(len(fleet),
			func(j int) float64 { return float64(comp(j)) },
			func(j int) float64 { return fleet[j].MaxW })
		bestComp := comp(best)
		freeAt[best] = bestComp
		busy[best] += fleet[best].Service
		served[best]++
		lats = append(lats, bestComp-t)
		if bestComp > makespan {
			makespan = bestComp
		}
	}
	res := SimResult{
		Requests: len(tr.Arrivals),
		Makespan: makespan,
		Latency:  Summarize(lats),
	}
	if makespan > 0 {
		res.Throughput = float64(len(tr.Arrivals)) / makespan.Seconds()
	}
	for j, f := range fleet {
		frac := 0.0
		if makespan > 0 {
			frac = float64(busy[j]) / float64(makespan)
		}
		res.PerReplica = append(res.PerReplica, SimReplicaResult{Name: f.Name, Served: served[j], Busy: frac})
		res.EnergyJ += f.IdleW*makespan.Seconds() + (f.MaxW-f.IdleW)*busy[j].Seconds()
	}
	return res, nil
}

// LatencySummary condenses a latency sample.
type LatencySummary struct {
	Count                     int
	Mean, P50, P95, P99, P999 time.Duration
	Max                       time.Duration
}

// Summarize computes the latency summary of a sample (order-agnostic).
func Summarize(lats []time.Duration) LatencySummary {
	if len(lats) == 0 {
		return LatencySummary{}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pick := func(q float64) time.Duration {
		return sorted[int(q*float64(len(sorted)-1))]
	}
	return LatencySummary{
		Count: len(sorted),
		Mean:  sum / time.Duration(len(sorted)),
		P50:   pick(0.5),
		P95:   pick(0.95),
		P99:   pick(0.99),
		P999:  pick(0.999),
		Max:   sorted[len(sorted)-1],
	}
}

// ClosedLoopConfig shapes a closed-loop simulation: a population of
// clients that each wait for a response (or a shed) before thinking and
// issuing the next request. Closed loops self-throttle — offered load
// adapts to fleet latency — which is the regime real user populations
// live in and the one where adaptive batching pays.
type ClosedLoopConfig struct {
	// Clients is the simulated population size.
	Clients int
	// RequestsPerClient is how many requests each client issues.
	RequestsPerClient int
	// Think is the mean think time between a client's response and its
	// next request (exponential, seeded).
	Think time.Duration
	// SLO is the per-request latency objective; responses above it (and
	// every shed request) count as violations. Zero disables the check
	// for completed requests; sheds always violate.
	SLO time.Duration
	// MaxBatch bounds how many queued requests a freed replica coalesces
	// into one batch. Values below 1 mean no coalescing (batch of 1).
	MaxBatch int
	// QueueCap bounds the shared waiting queue; arrivals beyond it are
	// shed. Zero means unbounded (no shedding).
	QueueCap int
	// Seed drives the think-time and stagger draws.
	Seed int64
}

// ClosedLoopResult is the outcome of one closed-loop simulation.
type ClosedLoopResult struct {
	Requests  int
	Completed int
	// Shed counts arrivals dropped at the full waiting queue.
	Shed       int
	Makespan   time.Duration
	Throughput float64
	// Latency summarizes completed requests only (sheds fail fast).
	Latency LatencySummary
	// SLOViolations counts completed requests over the SLO plus every
	// shed request.
	SLOViolations    int
	SLOViolationRate float64
	// Batches and MeanBatch describe coalescing: dispatched batches and
	// the mean samples per batch.
	Batches   int
	MeanBatch float64
}

// cloopEvent is one pending event in the closed-loop virtual clock:
// a client issuing a request (client >= 0) or a replica completing a
// batch (replica >= 0).
type cloopEvent struct {
	at      time.Duration
	seq     int64
	client  int
	replica int
}

// cloopHeap is a plain binary min-heap over (at, seq) — seq breaks
// time ties deterministically so identical seeds replay identically.
type cloopHeap []cloopEvent

func (h *cloopHeap) push(e cloopEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h)[i].less((*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *cloopHeap) pop() cloopEvent {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l <= last-1 && (*h)[l].less((*h)[small]) {
			small = l
		}
		if r <= last-1 && (*h)[r].less((*h)[small]) {
			small = r
		}
		if small == i {
			return top
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
}

func (e cloopEvent) less(o cloopEvent) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// cloopPending is one request waiting for a replica.
type cloopPending struct {
	client  int
	arrival time.Duration
}

// SimulateClosedLoop runs a closed-loop population against the analytic
// fleet in virtual time: free replicas serve arrivals immediately, busy
// fleets queue them (FIFO, bounded by QueueCap), and a freed replica
// coalesces up to MaxBatch queued requests into one batch priced by the
// replica's Service/PerItem model. Deterministic for a given seed and
// machine-independent, so million-client populations simulate in
// seconds and tail-latency claims do not depend on the harness host.
func SimulateClosedLoop(fleet []SimReplica, cfg ClosedLoopConfig) (ClosedLoopResult, error) {
	if len(fleet) == 0 {
		return ClosedLoopResult{}, fmt.Errorf("cluster: closed loop: empty fleet")
	}
	for _, f := range fleet {
		if f.Service <= 0 {
			return ClosedLoopResult{}, fmt.Errorf("cluster: closed loop: replica %s has no service time", f.Name)
		}
	}
	if cfg.Clients <= 0 || cfg.RequestsPerClient <= 0 {
		return ClosedLoopResult{}, fmt.Errorf("cluster: closed loop: need clients and requests per client")
	}
	if cfg.Think <= 0 {
		return ClosedLoopResult{}, fmt.Errorf("cluster: closed loop: need a positive think time")
	}
	maxBatch := cfg.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	remaining := make([]int, cfg.Clients)
	for i := range remaining {
		remaining[i] = cfg.RequestsPerClient
	}
	busy := make([]bool, len(fleet))
	batches := make([][]cloopPending, len(fleet))
	var queue []cloopPending
	var qhead int

	var heap cloopHeap
	var seq int64
	schedule := func(at time.Duration, client, replica int) {
		heap.push(cloopEvent{at: at, seq: seq, client: client, replica: replica})
		seq++
	}
	// Stagger first arrivals uniformly over one think interval so the
	// population does not arrive as a single synchronized spike.
	for c := 0; c < cfg.Clients; c++ {
		schedule(time.Duration(rng.Float64()*float64(cfg.Think)), c, -1)
	}

	res := ClosedLoopResult{Requests: cfg.Clients * cfg.RequestsPerClient}
	lats := make([]time.Duration, 0, res.Requests)
	var batchItems int

	// next schedules a client's follow-up request after a think pause.
	next := func(c int, now time.Duration) {
		if remaining[c] > 0 {
			schedule(now+time.Duration(rng.ExpFloat64()*float64(cfg.Think)), c, -1)
		}
	}
	// start dispatches a batch on a free replica.
	start := func(j int, batch []cloopPending, now time.Duration) {
		busy[j] = true
		batches[j] = batch
		res.Batches++
		batchItems += len(batch)
		schedule(now+fleet[j].batchService(len(batch)), -1, j)
	}
	// freeReplica routes among the idle replicas by the fleet's one rule
	// (cheapest): an idle replica costs its service time, a busy one
	// +Inf. It returns -1 when every replica is busy.
	freeReplica := func() int {
		j := cheapest(len(fleet),
			func(j int) float64 {
				if busy[j] {
					return math.Inf(1)
				}
				return float64(fleet[j].Service)
			},
			func(j int) float64 { return fleet[j].MaxW })
		if busy[j] {
			return -1
		}
		return j
	}

	for len(heap) > 0 {
		ev := heap.pop()
		if ev.at > res.Makespan {
			res.Makespan = ev.at
		}
		if ev.client >= 0 {
			// A client issues one request.
			remaining[ev.client]--
			req := cloopPending{client: ev.client, arrival: ev.at}
			if j := freeReplica(); j >= 0 {
				start(j, []cloopPending{req}, ev.at)
			} else if cfg.QueueCap <= 0 || len(queue)-qhead < cfg.QueueCap {
				queue = append(queue, req)
			} else {
				res.Shed++
				res.SLOViolations++
				next(ev.client, ev.at)
			}
			continue
		}
		// A replica completes its batch.
		j := ev.replica
		for _, req := range batches[j] {
			lat := ev.at - req.arrival
			lats = append(lats, lat)
			res.Completed++
			if cfg.SLO > 0 && lat > cfg.SLO {
				res.SLOViolations++
			}
			next(req.client, ev.at)
		}
		batches[j] = nil
		busy[j] = false
		if n := len(queue) - qhead; n > 0 {
			if n > maxBatch {
				n = maxBatch
			}
			batch := append([]cloopPending(nil), queue[qhead:qhead+n]...)
			qhead += n
			if qhead == len(queue) {
				queue, qhead = queue[:0], 0
			}
			start(j, batch, ev.at)
		}
	}

	res.Latency = Summarize(lats)
	if res.Makespan > 0 {
		res.Throughput = float64(res.Completed) / res.Makespan.Seconds()
	}
	if res.Requests > 0 {
		res.SLOViolationRate = float64(res.SLOViolations) / float64(res.Requests)
	}
	if res.Batches > 0 {
		res.MeanBatch = float64(batchItems) / float64(res.Batches)
	}
	return res, nil
}
