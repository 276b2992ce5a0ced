package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"vedliot/internal/tensor"
)

// TestFrontDoorAllocations pins what the front door allocates per
// coalesced request, the way inference.TestRunAllocations pins the
// engine: eight one-row requests of 784 floats held behind a busy
// replica, stacked into one submission by count and answered from its
// echoed rows, over the held-shut gateFleet (whose own record of the
// submission is part of the figure). What is left per request is the
// member's reply map and its one row view (header and shape), plus an
// eighth of the batch: the stacked tensor, the two maps around it, the
// completion closure and the timer: 47 allocations per eight requests
// and 3,952 bytes per request. The ticket and the goroutine that waited
// on it made that 48 and 3,973; with a copied reply per member and a
// shape string per request the same test read 11 per request and 7,212
// bytes. A change that puts any of them back fails.
func TestFrontDoorAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const members, width = 8, 784
	fleet := newGateFleet()
	fleet.owned = true // nothing leaves before the count does it
	var stats batchStats
	b := newBatcher(fleet, []string{"x"}, []tensor.Shape{{width}},
		BatchPolicy{MaxBatch: members, MaxDelay: time.Hour}, &stats)
	var wg sync.WaitGroup
	reqs := make([]map[string]*tensor.Tensor, members)
	dones := make([]func(map[string]*tensor.Tensor, error), members)
	for i := range reqs {
		i := i // go 1.21: one variable per iteration for the closure below
		in := tensor.New(tensor.FP32, 1, width)
		for j := range in.F32 {
			in.F32[j] = float32(i)
		}
		reqs[i] = map[string]*tensor.Tensor{"x": in}
		dones[i] = func(outs map[string]*tensor.Tensor, err error) {
			defer wg.Done()
			if y := outs["x"]; err != nil || y == nil || len(y.F32) != width || y.F32[width-1] != float32(i) {
				t.Errorf("request %d got %v (%v), want its own row back", i, y, err)
			}
		}
	}
	cycle := func() {
		wg.Add(members)
		for i, r := range reqs {
			b.add(context.Background(), r, dones[i])
		}
		(<-fleet.subs).open()
		wg.Wait()
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, cycle) / members
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / members
	t.Logf("%.3f allocations and %.0f bytes per coalesced request", allocs, bytes)
	if allocs > 47.0/members || bytes > 4032 {
		t.Errorf("%.3f allocations and %.0f bytes per coalesced request, want at most %.3f and 4032", allocs, bytes, 47.0/members)
	}
}
