package cluster

import (
	"testing"
	"time"
)

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
