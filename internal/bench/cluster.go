package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vedliot/internal/artifact"
	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// ClusterStudy exercises the fleet-serving layer at all of its scales:
//
//  1. Replica scaling — a synthetic open-loop trace replayed (in exact
//     virtual time, so the result is machine-independent) against 1, 2
//     and 4 CPU-equivalent replicas, showing aggregate throughput
//     scaling with replica count.
//  2. Heterogeneous fleet — the real serving path on a uRECS chassis
//     mixing the host CPU engine with two distinct accelerator device
//     models behind the one Backend interface: functional parity with
//     the reference engine, cost-aware routing telemetry and the
//     chassis power view.
//  3. Artifact deployment — the model round-trips through a .vedz
//     deployment artifact and replicas deploy from the registry's
//     fleet-wide plan cache: replica cold-start becomes load + bind
//     instead of lower + bind, measured as the cold-compile vs
//     cache-hit speedup, with bitwise parity against the in-process
//     path.
func ClusterStudy() (*Report, error) {
	r := newReport("Platform — heterogeneous fleet serving")

	// --- Part 1: throughput vs. replica count -------------------------
	// A CPU-equivalent replica: 2ms service (≈ the smart-mirror face
	// detector on an embedded CPU), COM Express Xeon-D power envelope.
	requests := pick(2000, 400)
	trace := cluster.OpenLoopTrace(requests, 2000, 7)
	cpuFleet := func(k int) []cluster.SimReplica {
		fleet := make([]cluster.SimReplica, k)
		for i := range fleet {
			fleet[i] = cluster.SimReplica{
				Name: fmt.Sprintf("cpu%d", i), Service: 2 * time.Millisecond, IdleW: 25, MaxW: 45,
			}
		}
		return fleet
	}
	r.linef("open-loop trace: %d requests at 2000 req/s (span %v)", requests, trace.Duration().Round(time.Millisecond))
	r.linef("%-10s %12s %12s %12s %12s", "replicas", "throughput", "p50", "p95", "energy")
	tput := map[int]float64{}
	for _, k := range []int{1, 2, 4} {
		res, err := cluster.SimulateTrace(cpuFleet(k), trace)
		if err != nil {
			return nil, err
		}
		tput[k] = res.Throughput
		r.linef("%-10d %9.0f/s %12v %12v %10.1f J", k, res.Throughput,
			res.Latency.P50.Round(time.Microsecond), res.Latency.P95.Round(time.Microsecond), res.EnergyJ)
		r.metric(fmt.Sprintf("throughput_%dx_cpu", k), "req/s", res.Throughput)
		r.metric(fmt.Sprintf("p95_latency_%dx_cpu", k), "ns", float64(res.Latency.P95))
	}
	scaling := tput[4] / tput[1]
	r.linef("aggregate throughput 1 -> 4 replicas: %.2fx", scaling)
	r.metric("throughput_scaling_1_to_4", "x", scaling)
	r.check("throughput scales >=1.5x from 1 to 4 CPU-equivalent replicas", scaling >= 1.5)

	// --- Part 2: heterogeneous fleet, real serving path ---------------
	chassis := microserver.NewURECS()
	if _, err := chassis.Mount("SMARC ARM", "Jetson Xavier NX", "Coral SoM"); err != nil {
		return nil, err
	}
	sched := cluster.NewScheduler(chassis, cluster.Config{QueueDepth: 256})
	defer sched.Close()
	g := nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 91})
	dep, err := sched.Deploy(g)
	if err != nil {
		return nil, err
	}
	eng, err := inference.Compile(g)
	if err != nil {
		return nil, err
	}
	in := tensor.New(tensor.FP32, 1, 1, 32, 32)
	for i := range in.F32 {
		in.F32[i] = float32(i%13)/13 - 0.5
	}
	want, err := eng.RunSingle(in)
	if err != nil {
		return nil, err
	}

	before := dep.Stats() // the estimates the burst starts on
	burst := pick(96, 32)
	tickets := make([]*cluster.Ticket, 0, burst)
	for i := 0; i < burst; i++ {
		tk, err := sched.Submit(g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in})
		if err != nil {
			return nil, err
		}
		tickets = append(tickets, tk)
	}
	parity := 0.0
	var lats []time.Duration
	for _, tk := range tickets {
		outs, err := tk.Wait()
		if err != nil {
			return nil, err
		}
		if d, _ := tensor.MaxAbsDiff(want, outs[g.Outputs[0]]); d > parity {
			parity = d
		}
		lats = append(lats, tk.Latency())
	}
	sum := cluster.Summarize(lats)

	st := dep.Stats()
	r.linef("")
	r.linef("uRECS fleet, %s, burst of %d async requests:", g.Name, burst)
	for _, line := range st.ReplicaTable() {
		r.linef("%s", line)
	}
	distinctAccel := map[string]bool{}
	cpuServed := int64(0)
	// The router promises that load follows the service estimate. What
	// can be checked of that on live replicas: one it rated at least twice
	// as fast as another, both when the burst began and when it ended (the
	// CPU replica's estimate is seeded by one cold probe and moves as the
	// burst's own completions arrive), serves at least as many. A closer
	// rating decides nothing here: completions race the placement in three
	// runs of four, queues then drain at the host's speed, the same for
	// every replica whatever its device model says, and the two
	// accelerators (1.0 against 1.4 ms) level out to within a few
	// requests either way. cluster.TestBurstFollowsEstimate pins the whole
	// split on replicas held shut.
	twiceAsFast := func(s cluster.Stats, i, j int) bool { return 2*s.Replicas[i].Estimate <= s.Replicas[j].Estimate }
	followsEstimate := true
	for i, rs := range st.Replicas {
		r.metric("served_"+rs.Backend, "req", float64(rs.Served))
		if rs.Modeled > 0 {
			distinctAccel[rs.Backend] = true
		} else {
			cpuServed += rs.Served
		}
		for j, other := range st.Replicas {
			if twiceAsFast(before, i, j) && twiceAsFast(st, i, j) && rs.Served < other.Served {
				followsEstimate = false
			}
		}
	}
	r.linef("burst latency: mean %v p50 %v p95 %v | chassis max power %.1f W",
		sum.Mean.Round(time.Microsecond), sum.P50.Round(time.Microsecond),
		sum.P95.Round(time.Microsecond), chassis.MaxPowerW())
	r.metric("hetero_burst_p95", "ns", float64(sum.P95))
	r.metric("hetero_parity", "maxabs", parity)

	r.check("fleet results bit-exact vs reference engine", parity == 0)
	r.check("fleet spans CPU engine + >=2 distinct accel device models",
		cpuServed > 0 && len(distinctAccel) >= 2)
	r.check("every backend served requests (warm-up probes each replica)",
		st.Completed == int64(burst) && allServed(st.Replicas))
	r.check("cost-aware routing: a replica rated twice as fast before and after the burst serves at least as many",
		followsEstimate)

	// --- Part 3: artifact deployment and the plan cache ---------------
	if err := artifactStudy(r, g, want, in); err != nil {
		return nil, err
	}
	return r, nil
}

// artifactStudy measures the deployment-artifact path: .vedz
// round-trip, plan-cache cold-compile vs cache-hit cold-start, and
// fleet parity when serving from the artifact.
func artifactStudy(r *Report, g *nn.Graph, want, in *tensor.Tensor) error {
	dir, err := os.MkdirTemp("", "vedliot-bench-artifact")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.vedz")
	if err := artifact.Save(path, &artifact.Model{Graph: g, Prov: artifact.Provenance{Tool: "vedliot-bench"}}); err != nil {
		return err
	}
	loadStart := time.Now()
	m, err := artifact.Load(path)
	if err != nil {
		return err
	}
	loadT := time.Since(loadStart)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The full integrity check a deploy runs on the bytes: one hash, the
	// section CRCs, and a canonical re-encode at copy speed.
	verifyStart := time.Now()
	if _, err := artifact.Verify(data); err != nil {
		return err
	}
	verifyT := time.Since(verifyStart)

	// Cold start without a cache: every replica lowers the plan.
	plans := inference.NewPlanCache()
	key := m.Digest + "|cpu-engine"
	coldStart := time.Now()
	coldExe, _, err := plans.Compile(key, inference.CPUBackend{}, m.Graph)
	if err != nil {
		return err
	}
	cold := time.Since(coldStart)
	// Cold start with a warm cache: load + bind, no lowering. Averaged
	// over many hits (a single hit is below timer resolution).
	const hits = 64
	warmStart := time.Now()
	for i := 0; i < hits; i++ {
		if _, _, err := plans.Compile(key, inference.CPUBackend{}, m.Graph); err != nil {
			return err
		}
	}
	warm := time.Since(warmStart) / hits
	if warm <= 0 {
		warm = time.Nanosecond
	}
	speedup := float64(cold) / float64(warm)

	// Parity: the cache-served plan is bitwise the in-process engine.
	got, err := coldExe.(*inference.Engine).RunSingle(in)
	if err != nil {
		return err
	}
	parity, _ := tensor.MaxAbsDiff(want, got)

	// Serve the artifact on a 2-replica CPU fleet through the registry:
	// one compile, one cache hit.
	reg := cluster.NewRegistry()
	if _, err := reg.LoadFile(path); err != nil {
		return err
	}
	chassis2 := microserver.NewURECS()
	if _, err := chassis2.Mount("SMARC ARM", "SMARC ARM"); err != nil {
		return err
	}
	sched := cluster.NewScheduler(chassis2, cluster.Config{Registry: reg})
	defer sched.Close()
	dep, err := sched.DeployArtifact(g.Name)
	if err != nil {
		return err
	}
	outs, err := dep.InferSingle(in)
	if err != nil {
		return err
	}
	fleetParity, _ := tensor.MaxAbsDiff(want, outs)
	ps := reg.Plans().Stats()

	r.linef("")
	r.linef("artifact deployment (%s, %d bytes, %s):", g.Name, len(data), m.Digest[:23])
	r.linef("load %v | verify %v | plan cold-compile %v | plan cache-hit %v -> %.0fx faster replica cold-start",
		loadT.Round(time.Microsecond), verifyT.Round(time.Microsecond), cold.Round(time.Microsecond), warm, speedup)
	r.linef("2-replica CPU fleet from registry: %d plan compiled, %d cache hit", ps.Misses, ps.Hits)
	r.metric("artifact_bytes", "B", float64(len(data)))
	r.metric("artifact_verify_us", "us", float64(verifyT.Microseconds()))
	r.metric("plan_cache_cold_us", "us", float64(cold.Microseconds()))
	r.metric("plan_cache_hit_ns", "ns", float64(warm.Nanoseconds()))
	r.metric("plan_cache_speedup", "x", speedup)
	r.metric("plan_cache_fleet_compiles", "plans", float64(ps.Misses))
	r.check("artifact round-trip serves bitwise-identical outputs", parity == 0 && fleetParity == 0)
	r.check("plan-cache cold-start >=3x faster than recompiling", speedup >= 3)
	r.check("artifact fleet shares one compiled plan across CPU replicas", ps.Entries == 1 && ps.Hits >= 1)
	return nil
}

func allServed(replicas []cluster.ReplicaStats) bool {
	for _, rs := range replicas {
		if rs.Served < 1 {
			return false
		}
	}
	return true
}
