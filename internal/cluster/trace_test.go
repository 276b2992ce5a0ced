package cluster

import (
	"testing"
	"time"
)

func cpuEquivalent(n int) []SimReplica {
	fleet := make([]SimReplica, n)
	for i := range fleet {
		fleet[i] = SimReplica{Name: "cpu", Service: 2 * time.Millisecond, IdleW: 25, MaxW: 45}
	}
	return fleet
}

func TestOpenLoopTraceDeterministic(t *testing.T) {
	a := OpenLoopTrace(100, 1000, 42)
	b := OpenLoopTrace(100, 1000, 42)
	if len(a.Arrivals) != 100 {
		t.Fatalf("trace has %d arrivals, want 100", len(a.Arrivals))
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatalf("arrival %d differs across identical seeds", i)
		}
		if i > 0 && a.Arrivals[i] < a.Arrivals[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	// Mean inter-arrival tracks the requested rate (1/1000 s) loosely.
	mean := a.Duration() / 100
	if mean < 200*time.Microsecond || mean > 5*time.Millisecond {
		t.Errorf("mean inter-arrival %v wildly off the 1ms target", mean)
	}
}

func TestSimulateThroughputScalesWithReplicas(t *testing.T) {
	// 2ms service → 500 req/s per replica; 2000 req/s arrivals saturate
	// fleets of up to 4.
	tr := OpenLoopTrace(400, 2000, 7)
	tp := map[int]float64{}
	var p95 = map[int]time.Duration{}
	for _, k := range []int{1, 2, 4} {
		res, err := SimulateTrace(cpuEquivalent(k), tr)
		if err != nil {
			t.Fatal(err)
		}
		tp[k] = res.Throughput
		p95[k] = res.Latency.P95
		served := 0
		for _, pr := range res.PerReplica {
			served += pr.Served
		}
		if served != res.Requests {
			t.Errorf("k=%d: per-replica served sums to %d, want %d", k, served, res.Requests)
		}
		if res.EnergyJ <= 0 {
			t.Errorf("k=%d: no energy accounted", k)
		}
	}
	if tp[4] < 3*tp[1] {
		t.Errorf("throughput 1→4 replicas scaled %.2fx, want >= 3x under saturation", tp[4]/tp[1])
	}
	if p95[4] >= p95[1] {
		t.Errorf("p95 latency did not improve with replicas: %v (1) vs %v (4)", p95[1], p95[4])
	}
}

func TestSimulateHeterogeneousSplit(t *testing.T) {
	fleet := []SimReplica{
		{Name: "fast", Service: 500 * time.Microsecond, IdleW: 1, MaxW: 2},
		{Name: "slow", Service: 4 * time.Millisecond, IdleW: 1, MaxW: 3},
	}
	res, err := SimulateTrace(fleet, OpenLoopTrace(300, 3000, 11))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerReplica[0].Served <= res.PerReplica[1].Served {
		t.Errorf("fast replica served %d <= slow %d; routing ignores service time",
			res.PerReplica[0].Served, res.PerReplica[1].Served)
	}
	if res.PerReplica[1].Served == 0 {
		t.Error("slow replica idle under saturation; fleet not shared")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := SimulateTrace(nil, OpenLoopTrace(10, 100, 1)); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := SimulateTrace([]SimReplica{{Name: "x"}}, OpenLoopTrace(10, 100, 1)); err == nil {
		t.Error("zero service time accepted")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]time.Duration{4 * time.Millisecond, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond})
	if s.Count != 4 || s.Max != 4*time.Millisecond {
		t.Errorf("summary %+v wrong count/max", s)
	}
	if s.Mean != 2500*time.Microsecond {
		t.Errorf("mean %v, want 2.5ms", s.Mean)
	}
	if s.P50 != 2*time.Millisecond {
		t.Errorf("p50 %v, want 2ms", s.P50)
	}
	if (Summarize(nil) != LatencySummary{}) {
		t.Error("empty sample should summarize to zero value")
	}
}

func TestSummarizeTailPercentiles(t *testing.T) {
	lats := make([]time.Duration, 1000)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Microsecond
	}
	s := Summarize(lats)
	if s.P99 != 990*time.Microsecond {
		t.Errorf("p99 %v, want 990µs", s.P99)
	}
	if s.P999 != 999*time.Microsecond {
		t.Errorf("p999 %v, want 999µs", s.P999)
	}
	if s.P99 < s.P95 || s.P999 < s.P99 || s.Max < s.P999 {
		t.Errorf("percentiles not monotone: %+v", s)
	}
}
