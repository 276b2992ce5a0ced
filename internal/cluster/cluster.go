// Package cluster is the fleet-serving layer: it places model replicas
// onto the heterogeneous compute modules mounted in a RECS chassis
// (§II-A) and routes traffic across them. One replica is one
// backend-generic microserver.Server — the host CPU engine for plain
// compute modules, a Device-backed accel.Backend for modules that name
// an accelerator — so the whole fleet is driven through the single
// inference.Backend/Executable pair, the cluster-level extension of the
// paper's cross-accelerator methodology. A model reaches a fleet one
// way, Scheduler.DeployArtifact from the fleet's registry; the fleet runs
// INT8 only under the schema its artifact embeds, and every replica runs
// in a modeled enclave that attests the artifact digest.
//
// A Scheduler owns one admission bound per deployed model. Requests
// enter through Deployment.SubmitCtx as a submission of
// microserver.Request records (InferCtx is one record plus a wait),
// admitted as one and routed on the caller's goroutine straight to the
// replica with the lowest estimated completion cost: the replica's one
// service estimate, an EWMA of the service per row it observed (seeded
// by the backend's latency model where there is one), scaled by its
// current queue depth, with a power-aware tie-break from the chassis
// module power envelope. The replica runs each submission as one engine
// call and its dispatcher runs the accounting, then each record's
// completion (under EmulateLatency once it has held the modeled device
// time); no goroutine, channel or timer sits between.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vedliot/internal/accel"
	"vedliot/internal/artifact"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/rvbackend"
	"vedliot/internal/tee"
	"vedliot/internal/tensor"
)

// Errors returned by the admission path.
var (
	// ErrOverloaded reports QueueDepth requests already admitted and
	// unresolved: the request was shed, not queued.
	ErrOverloaded = errors.New("cluster: admission queue full")
	// ErrClosed reports a scheduler, deployment or replica that has
	// shut down; it is the replica server's own error.
	ErrClosed = microserver.ErrClosed
)

// Config tunes the fleet scheduler.
type Config struct {
	// QueueDepth bounds, per model, the requests admitted and not yet
	// completed — queued on a replica or running (default 64). SubmitCtx
	// sheds the next one with ErrOverloaded.
	QueueDepth int
	// EmulateLatency holds each accelerator-backed submission on its
	// replica's dispatcher until its modeled device completes it, so a
	// modeled device is serial at its modeled rate, trace replays exhibit
	// the modeled heterogeneity and the service estimate observes what the
	// caller waited. Off by default; vedliot-serve turns it on.
	EmulateLatency bool
	// Registry supplies the deployment artifacts and the fleet-wide
	// compiled-plan cache DeployArtifact reads; a scheduler without one
	// deploys nothing.
	Registry *Registry
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Scheduler serves model fleets on one chassis. DeployArtifact places a
// model on the mounted compute modules; InferCtx and
// Deployment.SubmitCtx route requests across the resulting replicas.
type Scheduler struct {
	chassis *microserver.Chassis
	cfg     Config

	mu          sync.Mutex
	deployments map[string]*Deployment
	closed      bool
}

// NewScheduler wraps a populated chassis. The chassis is not mutated;
// power gating and module exchange stay with the platform layer.
func NewScheduler(c *microserver.Chassis, cfg Config) *Scheduler {
	return &Scheduler{chassis: c, cfg: cfg.withDefaults(), deployments: make(map[string]*Deployment)}
}

// backendForModule resolves the inference backend a module serves with:
// the host CPU engine for plain compute modules, a Device-backed
// accelerator backend when the module names an accel device model, and
// the cycle-accurate RISC-V SoC backend when the module names an
// emulated SoC. A non-nil schema puts INT8-precision accelerator
// modules on the native quantized engine (the INT8-only EdgeTPU-class
// devices in particular), mirroring how a real fleet deploys the
// calibrated model; SoC modules execute INT8 firmware only and refuse
// to deploy without one.
func backendForModule(m *microserver.Module, schema *nn.QuantSchema) (inference.Backend, error) {
	if m.SoC != "" {
		if schema == nil {
			return nil, fmt.Errorf("cluster: module %s: SoC %q serves INT8 firmware only; deploy an artifact with an embedded calibration schema",
				m.Name, m.SoC)
		}
		switch m.SoC {
		case "vexriscv-cfu":
			return rvbackend.Backend{Schema: schema}, nil
		case "vexriscv":
			return rvbackend.Backend{Schema: schema, NoCFU: true}, nil
		default:
			return nil, fmt.Errorf("cluster: module %s: unknown SoC %q", m.Name, m.SoC)
		}
	}
	if m.Accelerator == "" {
		return inference.CPUBackend{}, nil
	}
	dev, err := accel.FindDevice(m.Accelerator)
	if err != nil {
		return nil, fmt.Errorf("cluster: module %s: %w", m.Name, err)
	}
	b := accel.NewBackend(dev)
	if schema != nil && b.Precision == tensor.INT8 {
		b.Schema = schema
	}
	return b, nil
}

// DeployArtifact places a registered deployment artifact on every
// chassis slot that holds a module, one replica per slot in slot order,
// and is the one way a model reaches a fleet. When the registry carries
// a non-empty release policy the artifact's release bundle is
// re-verified here, at deploy time: a policy installed or tightened
// after registration still keeps an unsigned, unlogged or unwitnessed
// artifact off every replica. Replicas share compiled plans through the
// registry's fleet-wide cache keyed by the artifact's content digest:
// each distinct (digest, backend) lowers once, every further replica
// binds the cached plan. The artifact's embedded calibration schema
// drives INT8-capable modules; without one every replica serves FP32
// and a SoC module refuses it. Every replica is probed with one warm-up
// inference, which verifies the backend end to end and is the replica's
// first observed service; a refused deploy registers nothing.
func (s *Scheduler) DeployArtifact(name string) (*Deployment, error) {
	reg := s.cfg.Registry
	if reg == nil {
		return nil, fmt.Errorf("cluster: deploy artifact %q: scheduler has no registry", name)
	}
	m, err := reg.Get(name)
	if err != nil {
		return nil, err
	}
	if err := reg.Authorize(m.Digest); err != nil {
		return nil, fmt.Errorf("cluster: deploy artifact %q: %w", name, err)
	}
	g := m.Graph
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := s.deployments[g.Name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("cluster: model %q already deployed", g.Name)
	}
	s.mu.Unlock()

	d, err := newDeployment(g, m.Digest, s.cfg)
	if err != nil {
		return nil, err
	}
	for _, slot := range s.chassis.Slots {
		if mod := slot.Module(); mod != nil {
			if err := s.place(d, m, slot.Index, mod); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	if len(d.replicas) == 0 {
		return nil, fmt.Errorf("cluster: deploy %q: %s holds no module", g.Name, s.chassis.Name)
	}
	if err := d.warmup(); err != nil {
		d.close()
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		d.close()
		return nil, ErrClosed
	}
	if _, dup := s.deployments[g.Name]; dup {
		d.close()
		return nil, fmt.Errorf("cluster: model %q already deployed", g.Name)
	}
	s.deployments[g.Name] = d
	return d, nil
}

// place compiles the artifact, once per (digest, backend) through the
// registry's plan cache, for the module in one chassis slot and adds
// the replica serving it.
func (s *Scheduler) place(d *Deployment, m *artifact.Model, idx int, mod *microserver.Module) error {
	backend, err := backendForModule(mod, m.Schema)
	if err != nil {
		return err
	}
	exe, _, err := s.cfg.Registry.Plans().Compile(planKey(m.Digest, backend), backend, m.Graph)
	if err == nil {
		err = d.addReplica(m.Graph, exe, backend.Name(), idx, mod)
	}
	if err != nil {
		return fmt.Errorf("cluster: slot %d (%s): %w", idx, mod.Name, err)
	}
	return nil
}

// Deployment returns the fleet serving the named model. The empty name
// resolves when exactly one model is deployed.
func (s *Scheduler) Deployment(model string) (*Deployment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if model == "" {
		if len(s.deployments) == 1 {
			for _, d := range s.deployments {
				return d, nil
			}
		}
		return nil, fmt.Errorf("cluster: %d models deployed, name one", len(s.deployments))
	}
	d, ok := s.deployments[model]
	if !ok {
		return nil, fmt.Errorf("cluster: model %q not deployed", model)
	}
	return d, nil
}

// Models lists the deployed model names, sorted.
func (s *Scheduler) Models() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.deployments))
	for name := range s.deployments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// InferCtx routes one request for the named model and waits for the
// result; see Deployment.InferCtx.
func (s *Scheduler) InferCtx(ctx context.Context, model string, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	d, err := s.Deployment(model)
	if err != nil {
		return nil, err
	}
	return d.InferCtx(ctx, inputs)
}

// PowerW snapshots the chassis power draw implied by the fleet's
// current activity: a slot counts as fully utilized while any of its
// replicas has requests in flight.
func (s *Scheduler) PowerW() float64 {
	util := map[int]float64{}
	s.mu.Lock()
	for _, d := range s.deployments {
		for _, r := range d.replicas {
			if r.inflight.Load() > 0 {
				util[r.slot] = 1
			}
		}
	}
	s.mu.Unlock()
	return s.chassis.PowerW(util)
}

// Close shuts every deployment down: queued requests resolve with
// ErrClosed, running ones complete, replica servers are released.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ds := make([]*Deployment, 0, len(s.deployments))
	for _, d := range s.deployments {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.close()
	}
}

// Deployment is one model's fleet: its replicas, admission bound and
// routing rule.
type Deployment struct {
	model string
	// digest is the content digest of the artifact the fleet runs: the
	// identity replica attestation binds to the enclave measurement.
	digest string
	// inputNames and inPer are the model's declared inputs and their
	// per-sample shapes, what inference.CheckInputs judges a request by.
	inputNames []string
	inPer      []tensor.Shape
	replicas   []*Replica
	emulate    bool
	// serve.QueueDepth is the admission bound and the capacity of every
	// replica's queue, so an admitted request always finds room and the
	// enqueue in SubmitCtx cannot block.
	serve microserver.ServeConfig

	// closed refuses admissions once close has begun. A SubmitCtx that
	// read it just before still ends cleanly: the replica server it
	// reaches either queues it ahead of the drain or returns
	// microserver.ErrClosed.
	closed atomic.Bool
	// inflight counts requests admitted and not yet completed.
	inflight atomic.Int64

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
}

// newDeployment reads the model's declared interface.
func newDeployment(g *nn.Graph, digest string, cfg Config) (*Deployment, error) {
	d := &Deployment{
		model:      g.Name,
		digest:     digest,
		inputNames: append([]string(nil), g.Inputs...),
		emulate:    cfg.EmulateLatency,
		serve:      microserver.ServeConfig{QueueDepth: cfg.QueueDepth},
	}
	for _, name := range d.inputNames {
		n := g.Node(name)
		if n == nil {
			return nil, fmt.Errorf("cluster: graph %q missing input node %q", g.Name, name)
		}
		if len(n.Attrs.Shape) == 0 {
			return nil, fmt.Errorf("cluster: graph %q input %q declares no shape", g.Name, name)
		}
		d.inPer = append(d.inPer, tensor.Shape(n.Attrs.Shape).Clone())
	}
	return d, nil
}

// addReplica starts a replica server over the executable compiled for
// the module mounted in the given slot.
func (d *Deployment) addReplica(g *nn.Graph, exe inference.Executable, backendName string, slot int, mod *microserver.Module) error {
	srv, err := microserver.ServeCompiled(g, exe, backendName, d.serve)
	if err != nil {
		return err
	}
	// The replica runs inside a modeled enclave whose measurement binds
	// its identity to the exact plan it executes: artifact digest,
	// backend, hosting module. Deployment.Attest quotes it.
	r := &Replica{
		id:      len(d.replicas),
		slot:    slot,
		module:  mod.Name,
		server:  srv,
		maxW:    mod.MaxW,
		enclave: tee.NewEnclave(replicaImage(d.digest, backendName, mod.Name)),
	}
	// An executable with a latency model (roofline predictions from
	// accel programs, measured cycles per inference from SoC firmware)
	// seeds the service estimate; what the replica observes corrects it.
	if p, ok := exe.(inference.LatencyModel); ok {
		if lat, err := p.PredictLatency(1); err == nil {
			r.ewmaNS.Store(int64(lat))
		}
	}
	d.replicas = append(d.replicas, r)
	return nil
}

// ArtifactDigest returns the content digest of the artifact the fleet
// runs.
func (d *Deployment) ArtifactDigest() string { return d.digest }

// Replicas returns the fleet members in slot order.
func (d *Deployment) Replicas() []*Replica { return d.replicas }

// InputNames returns the model's input-node names (a copy).
func (d *Deployment) InputNames() []string { return append([]string(nil), d.inputNames...) }

// InputShapes returns the per-sample shape of each declared input, in
// InputNames order (a copy of the list; the shapes are read-only).
func (d *Deployment) InputShapes() []tensor.Shape { return append([]tensor.Shape(nil), d.inPer...) }

// warmup probes every replica at once with one zero-input request,
// verifying each backend end to end and folding the service it observes
// into the replica's estimate, then waits for all of them.
func (d *Deployment) warmup() error {
	inputs := make(map[string]*tensor.Tensor, len(d.inputNames))
	for i, name := range d.inputNames {
		inputs[name] = tensor.New(tensor.FP32, append(tensor.Shape{1}, d.inPer[i]...)...)
	}
	errs := make([]error, len(d.replicas))
	var wg sync.WaitGroup
	for i, r := range d.replicas {
		i, r := i, r
		wg.Add(1)
		q := &microserver.Request{Ctx: context.Background(), Ins: inputs, Rows: 1,
			Done: func(_ map[string]*tensor.Tensor, err error) { errs[i] = err; wg.Done() }}
		observe := func(service time.Duration, _ int, err error) { r.observe(service, err) }
		if err := r.server.Submit([]*microserver.Request{q}, d.hold(r, observe)); err != nil {
			errs[i] = err
			wg.Done()
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			r := d.replicas[i]
			return fmt.Errorf("cluster: warmup replica %d (%s, %s): %w", r.id, r.module, r.Backend(), err)
		}
	}
	return nil
}

// SubmitCtx admits a submission of records (the slice is the fleet's
// from then on) and returns: an error, completing nothing, or nil,
// completing every record exactly once. It is refused before it counts
// when inference.CheckInputs, which sets each record's Rows, refuses a
// record's inputs or when every record's caller has gone; with
// QueueDepth submissions outstanding it is shed with ErrOverloaded. It
// is routed on the caller's goroutine to a replica's queue, which always
// has room, and runs as one engine call (microserver.Server.Submit); the
// accounting then frees the slot, done (if non-nil) runs, then each
// record's Done, on the replica's dispatcher; under EmulateLatency not
// before the modeled device has completed the rows that ran.
func (d *Deployment) SubmitCtx(reqs []*microserver.Request, done func()) error {
	if d.closed.Load() {
		return ErrClosed
	}
	// ended stays non-nil (nothing to run is bad input) until a live record.
	ended := inference.ErrBadInput
	for _, q := range reqs {
		n, err := inference.CheckInputs(d.inputNames, d.inPer, q.Ins)
		if err != nil {
			return err
		}
		q.Rows = n
		if ended != nil {
			ended = q.Ctx.Err()
		}
	}
	if ended != nil {
		return ended
	}
	// Counted shed or not: Submitted == Completed + Rejected must hold.
	d.submitted.Add(1)
	if d.inflight.Add(1) > int64(d.serve.QueueDepth) {
		d.inflight.Add(-1)
		d.rejected.Add(1)
		return ErrOverloaded
	}
	r := d.pick()
	r.inflight.Add(1)
	err := r.server.Submit(reqs, d.hold(r, func(service time.Duration, ran int, err error) {
		d.finish(r, service, ran, err)
		if done != nil {
			done()
		}
	}))
	if err != nil {
		// Close landed since the check above; it counts as completed,
		// like a queued submission close drains.
		d.finish(r, 0, 0, err)
	}
	return err
}

// finish is a submission's accounting, once however it ends; the slot
// is free before any completion runs, so a caller that resubmits on
// completion is never shed by its own request. The EWMA takes service
// per row that ran: coalescing must not read as a slower replica.
func (d *Deployment) finish(r *Replica, service time.Duration, rows int, err error) {
	r.inflight.Add(-1)
	if err == nil {
		service /= time.Duration(rows)
	}
	r.observe(service, err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		d.cancelled.Add(1)
	}
	d.inflight.Add(-1)
	d.completed.Add(1)
}

// hold is the completion a replica's server runs for a submission: done
// itself, or under EmulateLatency, for a backend with a latency model,
// done once the dispatcher has held until the modeled device completes
// it, PredictLatency(ran) after max(free, submitted); a late wake-up
// shortens the next hold, not the rate. The service reported is the
// larger of the run and the predicted latency, since the caller waited it.
func (d *Deployment) hold(r *Replica, done func(service time.Duration, ran int, err error)) func(time.Duration, int, error) {
	p, ok := r.server.Executable().(inference.LatencyModel)
	if !ok || !d.emulate {
		return done
	}
	submitted := time.Now()
	return func(service time.Duration, ran int, err error) {
		if lat, perr := p.PredictLatency(ran); err == nil && perr == nil {
			due := r.free
			if due.Before(submitted) {
				due = submitted
			}
			due = due.Add(lat)
			now := time.Now()
			r.free = now
			if due.After(now) {
				time.Sleep(due.Sub(now))
				r.free = due
			}
			service = max(service, lat)
		}
		done(service, ran, err)
	}
}

// InferCtx is a one-record SubmitCtx plus a wait (microserver.Call): it
// returns the result, or the context's error as soon as the context
// ends. A request abandoned that way still completes on its replica (or
// is dropped from the queue), and its result is discarded.
func (d *Deployment) InferCtx(ctx context.Context, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return microserver.Call(ctx, inputs, func(q *microserver.Request) error {
		return d.SubmitCtx([]*microserver.Request{q}, nil)
	})
}

// pick returns the replica with the lowest estimated completion cost:
// per-request service estimate scaled by queue depth, ties by cheapest.
// It reads only atomics, so concurrent Submits route without a lock.
func (d *Deployment) pick() *Replica {
	return d.replicas[cheapest(len(d.replicas),
		func(i int) float64 {
			r := d.replicas[i]
			return float64(r.inflight.Load()+1) * float64(r.ServiceEstimate())
		},
		func(i int) float64 { return d.replicas[i].maxW })]
}

// Idle reports whether the replica the routing rule would pick right
// now has nothing in flight: the front door submits at once while it
// does and holds for company only while it does not. Atomics only, like
// pick.
func (d *Deployment) Idle() bool { return d.pick().inflight.Load() == 0 }

// cheapest is the routing rule: the index in [0, n) with the lowest
// cost, where costs within 2% of the running best are tied and resolve
// toward the lower worst-case module power — the chassis power model's
// tie-break.
func cheapest(n int, cost, maxW func(int) float64) int {
	best, bestCost := 0, cost(0)
	for i := 1; i < n; i++ {
		c := cost(i)
		if c < 0.98*bestCost || (c <= 1.02*bestCost && maxW(i) < maxW(best)) {
			best, bestCost = i, c
		}
	}
	return best
}

// close shuts the deployment down: admissions stop, then each replica
// server closes — its running request completes, under EmulateLatency
// after its modeled latency, and its queued ones complete with
// ErrClosed. When close returns every admitted request has completed.
func (d *Deployment) close() {
	d.closed.Store(true)
	for _, r := range d.replicas {
		r.server.Close()
	}
}

// Stats snapshots the deployment's routing telemetry.
func (d *Deployment) Stats() Stats {
	st := Stats{
		Model:     d.model,
		Submitted: d.submitted.Load(),
		Completed: d.completed.Load(),
		Rejected:  d.rejected.Load(),
		Cancelled: d.cancelled.Load(),
	}
	for _, r := range d.replicas {
		st.Replicas = append(st.Replicas, r.Stats())
	}
	return st
}

// Stats is a deployment's cumulative routing telemetry.
type Stats struct {
	Model string
	// Submitted counts every admission attempt, shed ones included, one
	// per submission however many records it carries.
	Submitted int64
	Completed int64
	Rejected  int64
	// Cancelled counts admitted submissions whose every record's caller
	// context ended before a replica ran it; they are a subset of
	// Completed, so Submitted == Completed + Rejected still holds.
	Cancelled int64
	Replicas  []ReplicaStats
}

// ReplicaTable renders the per-replica routing telemetry as aligned
// text lines (header first) — the table both the bench report and the
// vedliot-serve driver print.
func (s Stats) ReplicaTable() []string {
	lines := []string{fmt.Sprintf("%-6s %-18s %-20s %9s %12s %12s",
		"slot", "module", "backend", "served", "svc est", "maxW")}
	for _, rs := range s.Replicas {
		lines = append(lines, fmt.Sprintf("%-6d %-18s %-20s %9d %12v %10.1fW",
			rs.Slot, rs.Module, rs.Backend, rs.Served, rs.Estimate.Round(time.Microsecond), rs.MaxW))
	}
	return lines
}

// Replica is one fleet member: a backend-generic server bound to a
// chassis slot.
type Replica struct {
	id     int
	slot   int
	module string
	server *microserver.Server
	maxW   float64
	// enclave is the replica's modeled trusted execution context; its
	// measurement binds the artifact digest.
	enclave *tee.Enclave
	// free is the modeled device's next-free time under EmulateLatency;
	// only the replica's dispatcher reads and writes it (Deployment.hold).
	free time.Time

	inflight atomic.Int64
	served   atomic.Int64
	failed   atomic.Int64
	shed     atomic.Int64
	// ewmaNS is the service estimate: the EWMA, in nanoseconds, of the
	// service per row each run observed, seeded by the backend's latency
	// model where it has one. Only served requests feed it: shed,
	// cancelled and failed ones never measured a completed run and would
	// skew routing for the wrong reason.
	ewmaNS atomic.Int64
}

// Backend names the inference backend the replica serves with.
func (r *Replica) Backend() string { return r.server.Backend() }

// Server exposes the replica's node server.
func (r *Replica) Server() *microserver.Server { return r.server }

// ServiceEstimate is the per-request service time the router weighs:
// the EWMA of observed service per row. A backend's latency model or
// the deploy warm-up seeds it before the replica takes traffic.
func (r *Replica) ServiceEstimate() time.Duration { return time.Duration(r.ewmaNS.Load()) }

// isShed reports whether an error is load shedding, shutdown or caller
// disappearance rather than a replica fault: such requests never ran,
// so they must stay out of both the failure count and the service-time
// EWMA the router weighs.
func isShed(err error) bool {
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// observe folds one completed request, and the service per row it
// observed, into the replica's telemetry. Only served requests update
// the EWMA: a shed or cancelled request never ran, and folding it in
// would skew the routing estimate (the admission-accounting bug this
// guards against).
func (r *Replica) observe(service time.Duration, err error) {
	switch {
	case err == nil:
	case isShed(err):
		r.shed.Add(1)
		return
	default:
		r.failed.Add(1)
		return
	}
	r.served.Add(1)
	for {
		old := r.ewmaNS.Load()
		next := int64(service)
		if old > 0 {
			next = old + (int64(service)-old)/4
		}
		if r.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// Stats snapshots the replica's telemetry.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		ID:       r.id,
		Slot:     r.slot,
		Module:   r.module,
		Backend:  r.Backend(),
		Served:   r.served.Load(),
		Failed:   r.failed.Load(),
		Shed:     r.shed.Load(),
		Inflight: r.inflight.Load(),
		Estimate: r.ServiceEstimate(),
		MaxW:     r.maxW,
	}
}

// ReplicaStats is one replica's telemetry snapshot.
type ReplicaStats struct {
	ID      int
	Slot    int
	Module  string
	Backend string
	Served  int64
	Failed  int64
	// Shed counts requests that reached this replica but were shed or
	// cancelled before running; excluded from Failed and from the EWMA.
	Shed     int64
	Inflight int64
	// Estimate is Replica.ServiceEstimate, what the router weighs.
	Estimate time.Duration
	MaxW     float64
}
