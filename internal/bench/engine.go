package bench

import (
	"fmt"
	"sort"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	"vedliot/internal/zoo"
)

// EngineStudy compares the legacy tree-walking interpreter with the
// compiled execution-plan engine on a smart-mirror-class convolutional
// workload: single-inference latency, batch scaling, fused RunBatch
// dispatch and the memory planner's arena footprint. This is the
// harness's view of the toolchain refactor: same network, same
// arithmetic (outputs are compared), different execution strategy.
func EngineStudy() (*Report, error) {
	r := newReport("Toolchain — compiled engine vs reference interpreter")

	size := pick(64, 32)
	iters := pick(3, 1)
	g := nn.FaceDetectNet(size, nn.BuildOptions{Weights: true, Seed: 91})
	interp, err := inference.NewInterpreter(g)
	if err != nil {
		return nil, err
	}
	// Lowering trace: the shared pass pipeline both compilers drive.
	// Pass timings make compile-time regressions visible in the same
	// artifact that gates run-time.
	module, records, err := ir.Lower(g, nil, false)
	if err != nil {
		return nil, err
	}
	var lowerTotal time.Duration
	opsBefore, opsAfter := 0, 0
	for _, rec := range records {
		lowerTotal += rec.Duration
		if opsBefore == 0 {
			opsBefore = rec.OpsBefore
		}
		opsAfter = rec.OpsAfter
	}
	eliminated := opsBefore - opsAfter
	fusedChains := 0
	for _, op := range module.Ops {
		if len(op.Fused) > 0 {
			fusedChains++
		}
	}
	eng, err := inference.Compile(g)
	if err != nil {
		return nil, err
	}

	input := func(batch int) *tensor.Tensor {
		in := tensor.New(tensor.FP32, batch, 1, size, size)
		for i := range in.F32 {
			in.F32[i] = float32(i%13)/13 - 0.5
		}
		return in
	}

	// Functional parity on a batch-8 input.
	in8 := input(8)
	want, err := interp.RunSingle(in8)
	if err != nil {
		return nil, err
	}
	got, err := eng.RunSingle(in8)
	if err != nil {
		return nil, err
	}
	parity, err := tensor.MaxAbsDiff(want, got)
	if err != nil {
		return nil, err
	}

	// timeIt returns the best-of-iters latency of one call.
	timeIt := func(f func() error) (time.Duration, error) {
		best := time.Duration(0)
		for i := 0; i < iters; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	r.linef("%-28s %14s %14s %9s", "configuration", "interpreter", "engine", "speedup")
	var speedup8 float64
	for _, batch := range []int{1, 8, 32} {
		in := input(batch)
		ti, err := timeIt(func() error { _, err := interp.RunSingle(in); return err })
		if err != nil {
			return nil, err
		}
		te, err := timeIt(func() error { _, err := eng.RunSingle(in); return err })
		if err != nil {
			return nil, err
		}
		sp := float64(ti) / float64(te)
		if batch == 8 {
			speedup8 = sp
		}
		r.linef("batch %-22d %14v %14v %8.2fx", batch, ti, te, sp)
		r.metric(fmt.Sprintf("engine_latency_batch%d", batch), "ns", float64(te))
		r.metric(fmt.Sprintf("engine_speedup_batch%d", batch), "x", sp)
	}

	if err := servedModelRows(r); err != nil {
		return nil, err
	}

	// Fused dispatch: 8 independent single-sample requests.
	reqs := make([]map[string]*tensor.Tensor, 8)
	for i := range reqs {
		reqs[i] = map[string]*tensor.Tensor{g.Inputs[0]: input(1)}
	}
	tSeq, err := timeIt(func() error {
		for _, req := range reqs {
			if _, err := eng.Run(req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tFused, err := timeIt(func() error { _, err := eng.RunBatch(reqs); return err })
	if err != nil {
		return nil, err
	}
	r.linef("8x1 requests: sequential %v, fused RunBatch %v (%.2fx)",
		tSeq, tFused, float64(tSeq)/float64(tFused))
	r.metric("fused_dispatch_speedup", "x", float64(tSeq)/float64(tFused))

	r.linef("memory plan: %d arena slots, %d floats/sample (vs %d unplanned)",
		eng.NumSlots(), eng.ArenaFloatsPerSample(), unplannedFloats(g))
	r.metric("arena_floats_per_sample", "f32", float64(eng.ArenaFloatsPerSample()))
	r.linef("lowering: %d -> %d ops (%d eliminated, %d fused chains) in %v across %d passes",
		opsBefore, opsAfter, eliminated, fusedChains, lowerTotal, len(records))
	for _, rec := range records {
		if rec.Changed {
			r.linef("  pass %-18s %3d -> %3d ops  %v", rec.Pass, rec.OpsBefore, rec.OpsAfter, rec.Duration)
		}
	}
	r.metric("lowering_ops_eliminated", "ops", float64(eliminated))
	r.metric("lowering_fused_chains", "ops", float64(fusedChains))
	r.metric("lowering_time_us", "us", float64(lowerTotal.Microseconds()))

	kern := tensor.PickGemmF32()
	peakGF, convGF := gemmRoofline(kern, iters)
	attain := convGF / peakGF
	r.linef("gemm micro-kernel: %dx%d fp32 (tier %s) — hot tile %.2f GFLOP/s, conv-shaped %.2f GFLOP/s (%.0f%% attainment)",
		kern.MR, kern.NR, kern.Tier, peakGF, convGF, attain*100)
	r.metric("gemm_kernel_peak_gflops", "gflops", peakGF)
	r.metric("gemm_roofline_attainment", "ratio", attain)
	// Per-tier attainment: every variant this binary carries, measured on
	// the same hot-tile/conv-shape pair, so a tier regression (e.g. an
	// AVX-512 kernel losing to AVX2 on this host) shows up in the
	// artifact even when the runtime pick masks it.
	for _, v := range tensor.GemmF32Variants() {
		vp, vc := gemmRoofline(v, iters)
		va := vc / vp
		r.linef("  tier %-8s %dx%-3d hot %7.2f GFLOP/s, conv %7.2f GFLOP/s (%.0f%% attainment)",
			v.Tier, v.MR, v.NR, vp, vc, va*100)
		r.metric(fmt.Sprintf("gemm_roofline_attainment_%s", v.Tier), "ratio", va)
	}
	r.linef("output parity |engine - interpreter|: %g", parity)

	r.check("engine output matches interpreter (<= 1e-5)", parity <= 1e-5)
	// Timing checks stay lenient: CI machines are noisy. The benchmark
	// suite at the repository root tracks the real speedup trajectory.
	r.check("engine not slower than interpreter at batch 8", speedup8 >= 0.9)
	r.check("planner reuses activation memory", eng.ArenaFloatsPerSample() < unplannedFloats(g))
	r.check("lowering fuses the conv epilogues", fusedChains >= 4 && eliminated >= 8)
	r.check("packed gemm attains >= 25% of hot-tile peak", attain >= 0.25)
	return r, nil
}

// rowTiming is one configuration's wall time per input row: the median
// over the timed calls and their relative spread, (max-min)/median.
type rowTiming struct{ us, spread float64 }

// timeRows times reps rounds of the given calls, interleaved so machine
// noise hits every configuration alike, after one warm-up round. Each
// call processes rows input rows.
func timeRows(rows, reps int, calls ...func() error) ([]rowTiming, error) {
	samples := make([][]float64, len(calls))
	for round := 0; round <= reps; round++ { // round 0 is warm-up
		for i, call := range calls {
			start := time.Now()
			if err := call(); err != nil {
				return nil, err
			}
			if round > 0 {
				samples[i] = append(samples[i], float64(time.Since(start).Nanoseconds())/1e3/float64(rows))
			}
		}
	}
	out := make([]rowTiming, len(calls))
	for i, s := range samples {
		sort.Float64s(s)
		med := s[len(s)/2]
		out[i] = rowTiming{us: med, spread: (s[len(s)-1] - s[0]) / med}
	}
	return out, nil
}

// record prints one absolute per-row figure and writes it, with its
// spread, into the artifact.
func (tm rowTiming) record(r *Report, metric string) {
	r.metric(metric, "us", tm.us)
	r.metric(metric+"_spread", "ratio", tm.spread)
}

// servedModelRows reports the absolute FP32 engine time per row of the
// two zoo models the front door serves, at batch 1 (the shape a reply
// waits for) and batch 8.
func servedModelRows(r *Report) error {
	reps := pick(7, 5)
	r.linef("%-16s %16s %16s", "served model", "us/row batch 1", "us/row batch 8")
	for _, name := range []string{"mlp", "mobilenetedge"} {
		entry, err := zoo.Find(name)
		if err != nil {
			return err
		}
		g := entry.Build()
		eng, err := inference.Compile(g)
		if err != nil {
			return err
		}
		var tms [2]rowTiming
		for i, batch := range []int{1, 8} {
			in, err := nn.SyntheticInput(g, batch, 9)
			if err != nil {
				return err
			}
			tm, err := timeRows(batch, reps, func() error { _, err := eng.Run(in); return err })
			if err != nil {
				return err
			}
			tms[i] = tm[0]
			tm[0].record(r, fmt.Sprintf("engine_us_per_row_%s_batch%d", name, batch))
		}
		r.linef("%-16s %9.1f (±%2.0f%%) %9.1f (±%2.0f%%)", name,
			tms[0].us, tms[0].spread*50, tms[1].us, tms[1].spread*50)
	}
	return nil
}

// gemmRoofline times the selected FP32 micro-kernel at two operating
// points: a hot full MRxNR tile whose operands stay cache-resident
// (the practical peak of the register-blocked inner loop) and a
// convolution-shaped full GEMM through Compute. The ratio of the two
// rates — roofline attainment — measures how much of the inner loop's
// peak survives B packing, partial tiles and memory traffic at a real
// layer shape.
func gemmRoofline(kern tensor.GemmKernelF32, iters int) (peakGF, convGF float64) {
	mr, nr := kern.MR, kern.NR
	const kHot = 256
	apanel := make([]float32, kern.PackedASize(mr, kHot))
	bpack := make([]float32, kHot*nr)
	bias := make([]float32, mr)
	ctile := make([]float32, mr*nr)
	for i := range apanel {
		apanel[i] = float32(i%7)*0.25 - 0.5
	}
	for i := range bpack {
		bpack[i] = float32(i%5)*0.5 - 1
	}
	const hotCalls = 512
	var bestHot time.Duration
	for it := 0; it <= iters; it++ { // iteration 0 is warm-up
		start := time.Now()
		for c := 0; c < hotCalls; c++ {
			kern.Run(apanel, kHot, mr, bpack, nr, kHot, bias, ctile, nr)
		}
		if d := time.Since(start); it > 0 && (bestHot == 0 || d < bestHot) {
			bestHot = d
		}
	}
	peakGF = 2 * float64(mr) * float64(nr) * kHot * hotCalls / bestHot.Seconds() / 1e9

	// Conv-shaped problem: 128 output channels over 32x32 pixels with
	// 32-channel 3x3 taps — the mid-network GEMM both engines lower to.
	m, n, k := 128, 32*32, 32*9
	a := make([]float32, m*k)
	for i := range a {
		a[i] = float32(i%11)*0.1 - 0.5
	}
	apack := make([]float32, kern.PackedASize(m, k))
	kern.PackA(apack, a, k, m, k)
	bfull := make([]float32, k*n)
	for i := range bfull {
		bfull[i] = float32(i%13)*0.1 - 0.6
	}
	biasFull := kern.PackBias(make([]float32, m), m)
	cfull := make([]float32, m*n)
	bscratch := make([]float32, k*nr)
	var bestConv time.Duration
	for it := 0; it <= iters; it++ {
		start := time.Now()
		kern.Compute(m, n, k, apack, biasFull, bfull, n, cfull, n, bscratch, ctile)
		if d := time.Since(start); it > 0 && (bestConv == 0 || d < bestConv) {
			bestConv = d
		}
	}
	convGF = 2 * float64(m) * float64(n) * float64(k) / bestConv.Seconds() / 1e9
	return peakGF, convGF
}

// unplannedFloats sums all intermediate activation sizes for batch 1 —
// what a naive per-node allocator would hold live.
func unplannedFloats(g *nn.Graph) int {
	stats, err := g.Stats(1)
	if err != nil {
		return 0
	}
	isIO := make(map[string]bool)
	for _, name := range g.Inputs {
		isIO[name] = true
	}
	for _, name := range g.Outputs {
		isIO[name] = true
	}
	var total int64
	for _, ns := range stats.Nodes {
		if !isIO[ns.Name] {
			total += ns.ActivationBytes
		}
	}
	return int(total / 4)
}
