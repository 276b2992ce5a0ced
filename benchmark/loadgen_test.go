package main

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, strata = 200.0, 4
	stratum := 500 * time.Millisecond
	a := poissonSchedule(rate, stratum, strata, 7)
	if !reflect.DeepEqual(a, poissonSchedule(rate, stratum, strata, 7)) {
		t.Error("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(rate, stratum, strata, 8)) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) != 100*strata {
		t.Fatalf("schedule holds %d arrivals, want %d", len(a), 100*strata)
	}
	for i, d := range a {
		if s := i / 100; d < time.Duration(s)*stratum || d >= time.Duration(s+1)*stratum {
			t.Fatalf("arrival %d at %v lies outside stratum %d", i, d, s)
		}
		if i > 0 && d < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, d, i-1, a[i-1])
		}
	}
}

func TestPercentiles(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		p    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 100, 11},
		{[]float64{7}, 90, 7},
	} {
		if got := percentile(tc.vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.vals, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 8, 1, 6, 4}, 2.5, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 5.5/5.5", got)
	}
}

func TestSplitWindows(t *testing.T) {
	at := func(dueMS, latMS int, out outcome) sample {
		due := time.Duration(dueMS) * time.Millisecond
		return sample{due: due, sent: due, done: due + time.Duration(latMS)*time.Millisecond, out: out}
	}
	samples := []sample{
		at(50, 1, replyOK),      // warm-up: dropped
		at(100, 2, replyOK),     // window 0
		at(150, 30, replyOK),    // window 0, over the limit
		at(199, 4, replyWrong),  // window 0
		at(200, 6, replyOK),     // window 1
		at(299, 8, replyShed),   // window 1
		at(300, 1, replyFailed), // past the last window: dropped
	}
	ws := splitWindows(samples, 100*time.Millisecond, 100*time.Millisecond, 20*time.Millisecond, 2)
	if got, want := ws[0].tally, (tally{sent: 3, ok: 2, wrong: 1}); got != want {
		t.Errorf("window 0 tally %+v, want %+v", got, want)
	}
	if got, want := ws[1].tally, (tally{sent: 2, ok: 1, shed: 1}); got != want {
		t.Errorf("window 1 tally %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(ws[0].latencies, []float64{2, 30}) || !reflect.DeepEqual(ws[1].latencies, []float64{6}) {
		t.Errorf("latencies %v and %v, want [2 30] and [6]", ws[0].latencies, ws[1].latencies)
	}
	if ws[0].sloMiss != 2 || ws[1].sloMiss != 1 {
		t.Errorf("slo misses %d and %d, want 2 and 1", ws[0].sloMiss, ws[1].sloMiss)
	}
	if median([]float64{percentile(ws[0].latencies, 50), percentile(ws[1].latencies, 50)}) != 11 {
		t.Error("median of the window medians 16 and 6 should be 11")
	}
}

// TestDueTimeAccounting stalls the transport for 100 ms on one request
// with a single request allowed in flight. The requests that were due
// during the stall could not leave on time; their latency must still
// count the wait, or the stall would vanish from the percentiles.
func TestDueTimeAccounting(t *testing.T) {
	const gap, stall, stalled = 10 * time.Millisecond, 100 * time.Millisecond, 2
	due := make([]time.Duration, 20)
	for k := range due {
		due[k] = time.Duration(k) * gap
	}
	var ok atomic.Int64
	samples := openLoop(time.Now(), due, 1, &ok, func(k int) outcome {
		if k == stalled {
			time.Sleep(stall)
		}
		return replyOK
	})
	if ok.Load() != int64(len(due)) {
		t.Fatalf("%d correct replies counted, want %d", ok.Load(), len(due))
	}
	for k, s := range samples {
		stallEnd := due[stalled] + stall
		if k > stalled && s.due < stallEnd {
			if want := stallEnd - s.due; s.latency() < want {
				t.Errorf("request %d was due %v into a stall ending at %v but reports latency %v, want at least %v",
					k, s.due, stallEnd, s.latency(), want)
			}
			if s.sent-s.due <= 0 {
				t.Errorf("request %d left %v after it was due, want it late", k, s.sent-s.due)
			}
		}
	}
	if first, last := samples[stalled+1].latency(), samples[len(samples)-1].latency(); last > first/2 {
		t.Errorf("request due after the stall reports latency %v, the first one caught in it %v", last, first)
	}
}

// TestMismatchIsCaught perturbs one float of one reply by one unit in
// the last place and expects exactly that request counted as wrong.
func TestMismatchIsCaught(t *testing.T) {
	fx, err := buildFixture(workload{name: "tiny", model: "tiny", module: "SMARC ARM"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5
	engine := direct(fx.refExe)
	var calls atomic.Int64
	perturbing := func(ctx context.Context, ins tensors) (tensors, error) {
		outs, err := engine(ctx, ins)
		if err == nil && calls.Add(1) == victim {
			for _, out := range outs {
				out.F32[0] = math.Float32frombits(math.Float32bits(out.F32[0]) ^ 1)
			}
		}
		return outs, err
	}
	chk := &checker{fx: fx}
	var ok atomic.Int64
	due := make([]time.Duration, 12)
	var total tally
	for _, s := range openLoop(time.Now(), due, 1, &ok, func(k int) outcome {
		return chk.call(perturbing, k%numInputs, fx.inputs[k%numInputs])
	}) {
		total.add(s)
	}
	if want := (tally{sent: 12, ok: 11, wrong: 1}); total != want {
		t.Errorf("tally %+v, want %+v", total, want)
	}
	if total.bad() != 1 || ok.Load() != 11 {
		t.Errorf("bad %d and live ok count %d, want 1 and 11", total.bad(), ok.Load())
	}
	if chk.maxDiff <= 0 {
		t.Errorf("max abs diff %g, want the size of one unit in the last place", chk.maxDiff)
	}
	res := &result{metrics: map[string]float64{}}
	res.judge(total, chk, 0, 0, 0)
	if res.correct {
		t.Error("a run with a wrong reply was judged correct")
	}
}
