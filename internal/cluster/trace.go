package cluster

import (
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
