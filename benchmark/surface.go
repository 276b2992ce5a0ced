package main

// surface.go is the benchmark's only view of the system under test:
// every call into vedliot/internal/... is made from this file, so a
// refactor of the serving stack sees in one place what the benchmark
// needs kept. The functions used are listed in README.md.

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"time"

	"vedliot/internal/artifact"
	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/release"
	"vedliot/internal/serve"
	"vedliot/internal/tensor"
	"vedliot/internal/tensor/cpu"
	"vedliot/internal/zoo"
)

// tensors is one request's or reply's named tensor map.
type tensors = map[string]*tensor.Tensor

// inferFunc is one entry depth of the serving stack: it takes one
// request and blocks for its reply.
type inferFunc func(ctx context.Context, ins tensors) (tensors, error)

// numInputs is how many distinct request rows a workload draws from.
const numInputs = 64

// Fleet and front-door settings: the vedliot-serve defaults, fixed for
// every workload. EmulateLatency is off so wall time is the program's
// own, not a modeled sleep.
const (
	queueDepth    = 256
	frontMaxBatch = 32
	frontMaxDelay = time.Millisecond
	numConns      = 2
	numReplicas   = 2 // both uRECS module slots
)

// hostSummary names the CPU capability set and kernel tier the numbers
// were measured on.
func hostSummary() string { return cpu.Summary() }

// fixture is everything that exists before the set-up clock starts: the
// signed, witnessed artifact bytes, the policy that trusts them, the
// request rows and the reference reply for each row.
type fixture struct {
	wl     workload
	model  string
	data   []byte
	bundle *release.Bundle
	policy *release.Policy

	inputs []tensors
	refs   []tensors
	// refExe is the reference executable: batch-1 Engine.Run (FP32) or
	// QuantEngine.Run (INT8) on a graph decoded from the artifact.
	refExe inference.Executable
	// exes holds one executable per fleet replica, refExe first, so the
	// ladder's inner depths have as many engines as the fleet.
	exes []inference.Executable
	// refGraph is the decoded graph refExe was compiled from.
	refGraph *nn.Graph
	// top1Agrees[i] reports whether reference reply i has the same
	// top-1 class as the FP32 engine's reply; always true on FP32
	// workloads.
	top1Agrees []bool
	// compile is how long compiling refExe on the cold decoded graph took.
	compile time.Duration
}

// buildFixture packs, calibrates, signs and witnesses the workload's
// model and precomputes the reference replies. None of this is set-up
// time: a fleet operator receives the bytes and the bundle ready-made.
func buildFixture(wl workload, seed int64) (*fixture, error) {
	entry, err := zoo.Find(wl.model)
	if err != nil {
		return nil, err
	}
	g := entry.Build()
	fx := &fixture{wl: wl, model: g.Name}
	for i := 0; i < numInputs; i++ {
		in, err := nn.SyntheticInput(g, 1, int(seed%1000)+i)
		if err != nil {
			return nil, err
		}
		fx.inputs = append(fx.inputs, in)
	}
	var schema *nn.QuantSchema
	if wl.int8 {
		samples, err := nn.SyntheticCalibration(g, 4)
		if err != nil {
			return nil, err
		}
		if schema, err = optimize.Calibrate(g, samples); err != nil {
			return nil, err
		}
	}
	art := &artifact.Model{Graph: g, Schema: schema, Prov: artifact.Provenance{Model: g.Name, Tool: "benchmark"}}
	if fx.data, err = art.Encode(); err != nil {
		return nil, err
	}

	signer, err := release.NewSigner()
	if err != nil {
		return nil, err
	}
	_, logKey, err := release.GenerateLogKey()
	if err != nil {
		return nil, err
	}
	log := release.NewLog("benchmark/"+wl.name, logKey)
	witness, err := release.GenerateWitness("w0", log.Public())
	if err != nil {
		return nil, err
	}
	pub := &release.Publisher{Signer: signer, Log: log, Witnesses: []*release.Witness{witness}, Tool: "benchmark"}
	if fx.bundle, err = pub.Publish(fx.data, g.Name); err != nil {
		return nil, err
	}
	fx.policy = &release.Policy{
		Signers:      []ed25519.PublicKey{signer.Public()},
		LogPub:       log.Public(),
		Witnesses:    []ed25519.PublicKey{witness.Public()},
		MinWitnesses: 1,
	}

	// References run on a graph decoded from the bytes, as a replica's
	// would, never on the builder's own graph.
	m, err := artifact.Verify(fx.data)
	if err != nil {
		return nil, err
	}
	fx.refGraph = m.Graph
	for len(fx.exes) < numReplicas {
		start := time.Now()
		var exe inference.Executable
		if wl.int8 {
			exe, err = inference.CompileQuantized(m.Graph, m.Schema)
		} else {
			exe, err = inference.Compile(m.Graph)
		}
		if err != nil {
			return nil, err
		}
		if fx.exes = append(fx.exes, exe); len(fx.exes) == 1 {
			fx.refExe, fx.compile = exe, time.Since(start)
		}
	}
	fp32 := fx.refExe
	if wl.int8 {
		if fp32, err = inference.Compile(m.Graph); err != nil {
			return nil, err
		}
	}
	for _, in := range fx.inputs {
		ref, err := fx.refExe.Run(in)
		if err != nil {
			return nil, err
		}
		want, err := fp32.Run(in)
		if err != nil {
			return nil, err
		}
		fx.refs = append(fx.refs, ref)
		fx.top1Agrees = append(fx.top1Agrees, top1(ref) == top1(want))
	}
	return fx, nil
}

// setupSteps times the parts of one cold set-up.
type setupSteps struct {
	deploy time.Duration
	dial   time.Duration // mean of the connections
}

// fleet is one deployed, served and dialled instance of the workload.
type fleet struct {
	model   string
	reg     *cluster.Registry
	sched   *cluster.Scheduler
	dep     *cluster.Deployment
	srv     *serve.Server
	clients []*serve.Client
}

// deploy is the set-up a user waits for: from artifact bytes and
// release bundle in memory to the first bitwise-correct reply over a
// socket, on a fresh registry and scheduler.
func (fx *fixture) deploy() (*fleet, setupSteps, error) {
	var steps setupSteps
	m, err := artifact.Verify(fx.data)
	if err != nil {
		return nil, steps, err
	}
	fl := &fleet{model: fx.model, reg: cluster.NewRegistry()}
	fl.reg.SetPolicy(fx.policy)
	if err := fl.reg.AddRelease(m, fx.bundle); err != nil {
		return nil, steps, err
	}
	chassis := microserver.NewURECS()
	for slot := 0; slot < numReplicas; slot++ {
		mod, err := microserver.FindModule(fx.wl.module)
		if err != nil {
			return nil, steps, err
		}
		if err := chassis.Insert(slot, mod); err != nil {
			return nil, steps, err
		}
	}
	fl.sched = cluster.NewScheduler(chassis, cluster.Config{QueueDepth: queueDepth, EmulateLatency: false, Registry: fl.reg})
	start := time.Now()
	if fl.dep, err = fl.sched.DeployArtifact(fx.model); err != nil {
		fl.close()
		return nil, steps, err
	}
	steps.deploy = time.Since(start)
	fl.srv, err = serve.Listen("127.0.0.1:0", fl.sched, serve.Config{
		Batch: serve.BatchPolicy{MaxBatch: frontMaxBatch, MaxDelay: frontMaxDelay},
	})
	if err != nil {
		fl.close()
		return nil, steps, err
	}
	start = time.Now()
	for i := 0; i < numConns; i++ {
		c, err := serve.Dial(fl.srv.Addr(), "")
		if err != nil {
			fl.close()
			return nil, steps, err
		}
		fl.clients = append(fl.clients, c)
	}
	steps.dial = time.Since(start) / numConns
	got, err := fl.socket(0)(context.Background(), fx.inputs[0])
	if err != nil {
		fl.close()
		return nil, steps, err
	}
	if diff, same := compareReply(got, fx.refs[0]); !same {
		fl.close()
		return nil, steps, fmt.Errorf("first reply differs from the reference by %g", diff)
	}
	return fl, steps, nil
}

// socket is the serve entry depth on connection conn.
func (fl *fleet) socket(conn int) inferFunc {
	c := fl.clients[conn]
	return func(ctx context.Context, ins tensors) (tensors, error) { return c.InferCtx(ctx, fl.model, ins) }
}

// bySocket spreads requests over the connections: request k goes out
// on connection k mod numConns.
func (fl *fleet) bySocket() func(k int) inferFunc {
	socks := make([]inferFunc, len(fl.clients))
	for i := range socks {
		socks[i] = fl.socket(i)
	}
	return func(k int) inferFunc { return socks[k%len(socks)] }
}

// scheduler is the cluster entry depth.
func (fl *fleet) scheduler() inferFunc {
	return func(ctx context.Context, ins tensors) (tensors, error) { return fl.sched.InferCtx(ctx, fl.model, ins) }
}

// close tears the fleet down front to back; it tolerates a partly
// built fleet.
func (fl *fleet) close() {
	for _, c := range fl.clients {
		c.Close()
	}
	if fl.srv != nil {
		fl.srv.Close()
	}
	fl.sched.Close()
}

// fleetStats is one read of the four public Stats() surfaces.
type fleetStats struct {
	frontRows, frontBatches, overloaded int64
	submitted, completed, rejected      int64
	served                              []int64 // per replica
	nodeRequests, nodeBatches           int64   // summed over replicas
	planHits                            int64
}

// stats reads serve.Server, cluster.Deployment, each replica's
// microserver.Server and the registry's plan cache.
func (fl *fleet) stats() fleetStats {
	ss, ds := fl.srv.Stats(), fl.dep.Stats()
	st := fleetStats{
		frontRows: ss.BatchedRows, frontBatches: ss.Batches, overloaded: ss.Overloaded,
		submitted: ds.Submitted, completed: ds.Completed, rejected: ds.Rejected,
		planHits: fl.reg.Plans().Stats().Hits,
	}
	for _, rs := range ds.Replicas {
		st.served = append(st.served, rs.Served)
	}
	for _, r := range fl.dep.Replicas() {
		ns := r.Server().Stats()
		st.nodeRequests += ns.Requests
		st.nodeBatches += ns.Batches
	}
	return st
}

// powerW is the chassis power the fleet's current activity implies, as
// the platform model computes it. Modeled, not measured.
func (fl *fleet) powerW() float64 { return fl.sched.PowerW() }

// node is the microserver entry depth: one replica server over the
// given executable with the default ServeConfig.
type node struct{ srv *microserver.Server }

func (fx *fixture) serveNode(exe inference.Executable) (*node, error) {
	srv, err := microserver.ServeCompiled(fx.refGraph, exe, "benchmark", microserver.ServeConfig{})
	if err != nil {
		return nil, err
	}
	return &node{srv}, nil
}

func (n *node) infer() inferFunc {
	return func(_ context.Context, ins tensors) (tensors, error) { return n.srv.InferMap(ins) }
}

func (n *node) close() { n.srv.Close() }

// direct is the inference entry depth: the executable called with no
// serving layer above it.
func direct(exe inference.Executable) inferFunc {
	return func(_ context.Context, ins tensors) (tensors, error) { return exe.Run(ins) }
}

// spanExecutable wraps an executable so the benchmark can see the
// engine from outside: it times every Run and RunBatch and hands the
// interval and the requests it covered to record.
type spanExecutable struct {
	inner  inference.Executable
	record func(start, end time.Time, batch []tensors)
}

func (s spanExecutable) Run(ins tensors) (tensors, error) {
	start := time.Now()
	outs, err := s.inner.Run(ins)
	s.record(start, time.Now(), []tensors{ins})
	return outs, err
}

func (s spanExecutable) RunBatch(batch []tensors) ([]tensors, error) {
	start := time.Now()
	outs, err := s.inner.RunBatch(batch)
	s.record(start, time.Now(), batch)
	return outs, err
}

// tagRequest returns a copy of ins under fresh tensor headers that
// share the original data, plus a tag that identifies the copy. The
// serving layers hand request maps down unchanged, so requestTag finds
// the same tag on what reaches the executable.
func tagRequest(ins tensors) (tensors, any) {
	tagged := make(tensors, len(ins))
	for name, t := range ins {
		header := *t
		tagged[name] = &header
	}
	return tagged, requestTag(tagged)
}

// requestTag is the identity of a tagged request: the address of its
// first tensor header in name order.
func requestTag(ins tensors) any {
	var first string
	for name := range ins {
		if first == "" || name < first {
			first = name
		}
	}
	return ins[first]
}

// stackRows builds one request carrying the first n input rows, for
// timing the executable at batch n.
func (fx *fixture) stackRows(n int) tensors {
	out := make(tensors)
	for name, first := range fx.inputs[0] {
		t := tensor.New(tensor.FP32, append(tensor.Shape{n}, first.Shape[1:]...)...)
		for i := 0; i < n; i++ {
			copy(t.F32[i*len(first.F32):], fx.inputs[i][name].F32)
		}
		out[name] = t
	}
	return out
}

// verifyTimes times the two integrity checks a deployment performs on
// the artifact bytes.
func (fx *fixture) verifyTimes() (art, rel time.Duration, err error) {
	start := time.Now()
	if _, err = artifact.Verify(fx.data); err != nil {
		return 0, 0, err
	}
	art = time.Since(start)
	start = time.Now()
	err = fx.policy.VerifyArtifact(fx.data, fx.bundle)
	return art, time.Since(start), err
}

// isShed reports load shedding at either the socket or the scheduler
// depth, as opposed to a hard failure.
func isShed(err error) bool {
	var retry *serve.RetryAfterError
	return errors.As(err, &retry) || errors.Is(err, cluster.ErrOverloaded)
}

// compareReply checks a reply bitwise against its reference and returns
// the largest absolute difference when they differ.
func compareReply(got, want tensors) (maxAbsDiff float64, same bool) {
	if len(got) != len(want) {
		return math.Inf(1), false
	}
	same = true
	for name, w := range want {
		g := got[name]
		if g == nil || len(g.F32) != len(w.F32) {
			return math.Inf(1), false
		}
		for i, wv := range w.F32 {
			if math.Float32bits(g.F32[i]) != math.Float32bits(wv) {
				same = false
				maxAbsDiff = math.Max(maxAbsDiff, math.Abs(float64(g.F32[i])-float64(wv)))
			}
		}
	}
	return maxAbsDiff, same
}

// top1 is the index of the largest value of a single-output reply.
func top1(outs tensors) int {
	best := 0
	for _, t := range outs {
		for i, v := range t.F32 {
			if v > t.F32[best] {
				best = i
			}
		}
	}
	return best
}

// gemmProbe times the host's selected FP32 and INT8 GEMM micro-kernels
// on an m x n x k problem and returns GFLOP/s and Gop/s. Operation
// counts are computed from the shape (2mnk), not measured.
func gemmProbe(s gemmShape) (f32GFLOPS, i16GOPS float64) {
	ops := 2 * float64(s.m) * float64(s.n) * float64(s.k)

	kf := tensor.PickGemmF32()
	a := make([]float32, s.m*s.k)
	b := make([]float32, s.k*s.n)
	for i := range a {
		a[i] = float32(i%13)/13 - 0.5
	}
	for i := range b {
		b[i] = float32(i%7)/7 - 0.5
	}
	apack := make([]float32, kf.PackedASize(s.m, s.k))
	kf.PackA(apack, a, s.k, s.m, s.k)
	bias := kf.PackBias(make([]float32, s.m), s.m)
	c := make([]float32, s.m*s.n)
	bpack, ctile := make([]float32, s.k*kf.NR), make([]float32, kf.MR*kf.NR)
	f32GFLOPS = ops / bestOf(func() { kf.Compute(s.m, s.n, s.k, apack, bias, b, s.n, c, s.n, bpack, ctile) })

	ki := tensor.PickGemmI16()
	ai := make([]int16, s.m*s.k)
	bi := make([]int16, s.k*s.n)
	for i := range ai {
		ai[i] = int16(i%255) - 127
	}
	for i := range bi {
		bi[i] = int16(i%251) - 125
	}
	aipack := make([]int16, ki.PackedASize(s.m, s.k))
	ki.PackA(aipack, ai, s.k, s.m, s.k)
	ibias := ki.PackBias(make([]int32, s.m), s.m)
	ci := make([]int32, s.m*s.n)
	bipack, citile := make([]int16, tensor.KPairs(s.k)*ki.NR*2), make([]int32, ki.MR*ki.NR)
	i16GOPS = ops / bestOf(func() { ki.Compute(s.m, s.n, s.k, aipack, ibias, bi, s.n, ci, s.n, bipack, citile) })
	return f32GFLOPS, i16GOPS
}

// bestOf returns the fastest per-call time in nanoseconds over several
// timed batches of f, so ops/bestOf is in Gop/s.
func bestOf(f func()) float64 {
	const batches, calls = 7, 50
	f()
	best := math.Inf(1)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/calls)
	}
	return best
}
