package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"vedliot/internal/microserver"
	"vedliot/internal/tensor"
)

// TestFrontDoorAllocations pins what the front door allocates per
// coalesced request, the way inference.TestRunAllocations pins the
// engine: eight one-row requests of 784 floats held behind a busy
// replica, grouped into one submission by count and answered with their
// echoed inputs, over the held-shut gateFleet (whose own record of the
// submission is part of the figure). What is left per request is its
// microserver.Request record, plus an eighth of the batch: the pending
// slice's four growths, the completion closure, and the MaxDelay timer
// with its closure and the variable that closure checks: 17 allocations
// per eight requests and 90 bytes per request. The stacked tensor, the
// maps around it and each member's row view (reply map, header, shape)
// moved into RunBatch at the replica, which the front door now hands
// the records to unstacked; with them here the same test read 47 and
// 3,952, and with a copied reply per member and a shape string per
// request 11 per request and 7,212 bytes. A change that puts any of
// them back fails.
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
			b.add(&microserver.Request{Ctx: context.Background(), Ins: r, Done: dones[i]})
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
	if allocs > 17.0/members || bytes > 128 {
		t.Errorf("%.3f allocations and %.0f bytes per coalesced request, want at most %.3f and 128", allocs, bytes, 17.0/members)
	}
}
