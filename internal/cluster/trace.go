package cluster

import (
	"fmt"
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
	IdleW   float64
	MaxW    float64
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
