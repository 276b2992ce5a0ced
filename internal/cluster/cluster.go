// Package cluster is the fleet-serving layer: it places model replicas
// onto the heterogeneous compute modules mounted in a RECS chassis
// (§II-A) and routes traffic across them. One replica is one
// backend-generic microserver.Server — the host CPU engine for plain
// compute modules, a Device-backed accel.Backend for modules that name
// an accelerator — so the whole fleet is driven through the single
// inference.Backend/Executable pair, the cluster-level extension of the
// paper's cross-accelerator methodology.
//
// A Scheduler owns one admission bound per deployed model. Requests
// enter through blocking Infer or asynchronous Submit/Wait; Submit
// routes on the caller's goroutine, handing each request straight to
// the replica with the lowest estimated completion cost: the backend's
// roofline-predicted latency (or, for backends without a device model,
// an EWMA of the engine time per row the replica itself measured)
// scaled by the replica's current queue depth, with a power-aware
// tie-break from the chassis module power envelope. The replica runs
// its tickets one at a time, each as the rows it was submitted with,
// and its dispatcher resolves them; no goroutine sits between.
//
// SimulateTrace replays an open-loop Trace against an analytic fleet
// under the same routing rule in virtual time; SimFleet reads that
// fleet's service times off a live deployment.
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

// latencyModel is the cost-signal contract executables may implement:
// both accel.Program (roofline model) and rvbackend.Program (measured
// cycles) satisfy it.
type latencyModel interface {
	PredictLatency(batch int) (time.Duration, error)
}

// Errors returned by the admission path.
var (
	// ErrOverloaded reports QueueDepth tickets already admitted and
	// unresolved: the request was shed, not queued.
	ErrOverloaded = errors.New("cluster: admission queue full")
	// ErrClosed reports a scheduler or deployment that has shut down.
	ErrClosed = errors.New("cluster: scheduler closed")
)

// Config tunes the fleet scheduler.
type Config struct {
	// QueueDepth bounds, per model, the tickets admitted and not yet
	// resolved — queued on a replica or running (default 64). Submit
	// sheds the next one with ErrOverloaded.
	QueueDepth int
	// EmulateLatency stretches every accelerator-backed request to its
	// roofline-predicted latency (functional execution on the host is
	// usually faster than the model), so trace replays exhibit the
	// modeled heterogeneity. Off by default; drivers and demos turn it
	// on, tests keep wall time.
	EmulateLatency bool
	// Schema is the activation calibration artifact for native INT8
	// serving: INT8-capable accelerator modules then execute on the
	// quantized engine instead of the FP32 one. Nil keeps every replica
	// on the FP32 functional path (bit-exact across the fleet).
	Schema *nn.QuantSchema
	// Registry supplies deployment artifacts and the fleet-wide
	// compiled-plan cache for DeployArtifact. Nil schedulers can still
	// Deploy in-process graphs; artifact deployment requires one.
	Registry *Registry
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Scheduler serves model fleets on one chassis. Deploy places a model
// on the powered compute modules; Infer/Submit route requests across
// the resulting replicas.
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

// Chassis returns the underlying platform.
func (s *Scheduler) Chassis() *microserver.Chassis { return s.chassis }

// BackendForModule resolves the inference backend a module serves with:
// the host CPU engine for plain compute modules, a Device-backed
// accelerator backend when the module names an accel device model, and
// the cycle-accurate RISC-V SoC backend when the module names an
// emulated SoC. A non-nil schema puts INT8-precision accelerator
// modules on the native quantized engine (the INT8-only EdgeTPU-class
// devices in particular), mirroring how a real fleet deploys the
// calibrated model; SoC modules execute INT8 firmware only and refuse
// to deploy without one.
func BackendForModule(m *microserver.Module, schema *nn.QuantSchema) (inference.Backend, error) {
	if m.SoC != "" {
		if schema == nil {
			return nil, fmt.Errorf("cluster: module %s: SoC %q serves INT8 firmware only; deploy with a calibration schema",
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

// Deploy places the model on every powered slot of the chassis.
func (s *Scheduler) Deploy(g *nn.Graph) (*Deployment, error) {
	return s.DeployOn(g, s.poweredSlots()...)
}

// DeployArtifact places a registered deployment artifact on every
// powered slot of the chassis. Unlike Deploy, replicas share compiled
// plans through the registry's fleet-wide cache keyed by the
// artifact's content digest: each distinct (digest, backend, schema)
// lowers once, every further replica binds the cached plan. The
// artifact's embedded calibration schema drives INT8-capable modules;
// Config.Schema is the fallback for artifacts without one.
func (s *Scheduler) DeployArtifact(name string) (*Deployment, error) {
	return s.DeployArtifactOn(name, s.poweredSlots()...)
}

// DeployArtifactOn is DeployArtifact restricted to the given chassis
// slots. When the registry carries a non-empty release policy the
// artifact's release bundle is re-verified here, at deploy time — a
// policy installed or tightened after registration still keeps an
// unsigned, unlogged or unwitnessed artifact off every replica.
func (s *Scheduler) DeployArtifactOn(name string, slots ...int) (*Deployment, error) {
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
	schema := m.Schema
	if schema == nil {
		schema = s.cfg.Schema
	}
	schemaDigest, err := artifact.SchemaDigest(schema)
	if err != nil {
		return nil, fmt.Errorf("cluster: deploy artifact %q: %w", name, err)
	}
	return s.deploy(m.Graph, schema, m.Digest, slots, func(b inference.Backend) (inference.Executable, error) {
		exe, _, err := reg.Plans().Compile(planKey(m.Digest, b, schemaDigest), b, m.Graph)
		return exe, err
	})
}

// poweredSlots lists the chassis slots currently powered on.
func (s *Scheduler) poweredSlots() []int {
	var slots []int
	for _, slot := range s.chassis.Slots {
		if slot.Powered() {
			slots = append(slots, slot.Index)
		}
	}
	return slots
}

// DeployOn places the model on the given chassis slots, compiling it
// once per slot's backend and starting one replica server per slot.
// Every replica is probed with one warm-up inference, which verifies
// the backend end to end and seeds the observed-latency estimate.
func (s *Scheduler) DeployOn(g *nn.Graph, slots ...int) (*Deployment, error) {
	return s.deploy(g, s.cfg.Schema, "", slots, func(b inference.Backend) (inference.Executable, error) {
		return b.Compile(g)
	})
}

// compileFunc produces the executable a replica serves on one backend.
type compileFunc func(inference.Backend) (inference.Executable, error)

// deploy is the shared placement path: one replica server per slot over
// what compile returns for the slot's backend — a fresh plan for
// in-process graphs, the fleet-wide cached one for an artifact (digest
// set).
func (s *Scheduler) deploy(g *nn.Graph, schema *nn.QuantSchema, digest string, slots []int, compile compileFunc) (*Deployment, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("cluster: deploy %q: no slots", g.Name)
	}
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

	d, err := newDeployment(g, digest, s.cfg)
	if err != nil {
		return nil, err
	}
	for _, idx := range slots {
		if err := s.place(d, g, schema, idx, compile); err != nil {
			d.close()
			return nil, err
		}
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

// place compiles the model for the module in one chassis slot and adds
// the replica serving it.
func (s *Scheduler) place(d *Deployment, g *nn.Graph, schema *nn.QuantSchema, idx int, compile compileFunc) error {
	if idx < 0 || idx >= len(s.chassis.Slots) {
		return fmt.Errorf("cluster: %s has no slot %d", s.chassis.Name, idx)
	}
	slot := s.chassis.Slots[idx]
	mod := slot.Module()
	if mod == nil || !slot.Powered() {
		return fmt.Errorf("cluster: slot %d has no powered module", idx)
	}
	backend, err := BackendForModule(mod, schema)
	if err != nil {
		return err
	}
	exe, err := compile(backend)
	if err == nil {
		err = d.addReplica(g, exe, backend.Name(), idx, mod)
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

// Infer routes one request for the named model and blocks for the
// result.
func (s *Scheduler) Infer(model string, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return s.InferCtx(context.Background(), model, inputs)
}

// InferCtx is Infer bound to a caller context: the wait aborts when the
// context ends, and a request cancelled while still queued is dropped
// before it reaches a replica.
func (s *Scheduler) InferCtx(ctx context.Context, model string, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	d, err := s.Deployment(model)
	if err != nil {
		return nil, err
	}
	return d.InferCtx(ctx, inputs)
}

// Submit asynchronously admits one request for the named model.
func (s *Scheduler) Submit(model string, inputs map[string]*tensor.Tensor) (*Ticket, error) {
	return s.SubmitCtx(context.Background(), model, inputs)
}

// SubmitCtx is Submit bound to a caller context; see Deployment.SubmitCtx.
func (s *Scheduler) SubmitCtx(ctx context.Context, model string, inputs map[string]*tensor.Tensor) (*Ticket, error) {
	d, err := s.Deployment(model)
	if err != nil {
		return nil, err
	}
	return d.SubmitCtx(ctx, inputs)
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
	// digest is the content digest of the artifact the fleet runs, empty
	// for in-process Deploy graphs. It is the identity replica
	// attestation binds to the enclave measurement.
	digest string
	// inputNames and inPer are the model's declared inputs and their
	// per-sample shapes, what inference.CheckInputs judges a request by.
	inputNames  []string
	inPer       []tensor.Shape
	outputNames []string
	replicas    []*Replica
	emulate     bool
	// serve.QueueDepth is the admission bound and the capacity of every
	// replica's queue, so an admitted ticket always finds room and the
	// enqueue in SubmitCtx cannot block.
	serve microserver.ServeConfig

	// closed refuses admissions once close has begun. A Submit that read
	// it just before still resolves: the replica server it reaches either
	// queues it ahead of the drain or returns microserver.ErrClosed.
	closed atomic.Bool
	// inflight counts tickets admitted and not yet resolved.
	inflight atomic.Int64

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
}

// newDeployment reads the model's declared interface. Input shapes come
// from the input nodes' declared Attrs.Shape, never via InferShapes,
// which would write OutShape on every node of a graph that, on the
// DeployArtifact path, is registry-shared across schedulers (and
// read-only by the artifact contract).
func newDeployment(g *nn.Graph, digest string, cfg Config) (*Deployment, error) {
	d := &Deployment{
		model:       g.Name,
		digest:      digest,
		inputNames:  append([]string(nil), g.Inputs...),
		outputNames: append([]string(nil), g.Outputs...),
		emulate:     cfg.EmulateLatency,
		serve:       microserver.ServeConfig{QueueDepth: cfg.QueueDepth},
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
	r := &Replica{
		id:     len(d.replicas),
		slot:   slot,
		module: mod.Name,
		server: srv,
		idleW:  mod.IdleW,
		maxW:   mod.MaxW,
	}
	if d.digest != "" {
		// Artifact deployments run inside a modeled enclave whose
		// measurement binds the replica's identity to the exact plan
		// it executes: artifact digest, backend, hosting module. The
		// attestation path (Deployment.Attest) quotes it.
		r.enclave = tee.NewEnclave(ReplicaImage(d.digest, backendName, mod.Name))
	}
	// Any executable with a latency model feeds the router's cost
	// signal: roofline predictions from accel programs, measured
	// cycles-per-inference from SoC firmware.
	if p, ok := exe.(latencyModel); ok {
		if lat, err := p.PredictLatency(1); err == nil {
			r.modeled = lat
		}
	}
	d.replicas = append(d.replicas, r)
	return nil
}

// Model returns the deployed model's name.
func (d *Deployment) Model() string { return d.model }

// ArtifactDigest returns the content digest of the artifact the fleet
// runs, empty for in-process Deploy graphs.
func (d *Deployment) ArtifactDigest() string { return d.digest }

// Replicas returns the fleet members in slot order.
func (d *Deployment) Replicas() []*Replica { return d.replicas }

// InputNames returns the model's input-node names (a copy).
func (d *Deployment) InputNames() []string { return append([]string(nil), d.inputNames...) }

// OutputNames returns the model's output-node names (a copy).
func (d *Deployment) OutputNames() []string { return append([]string(nil), d.outputNames...) }

// InputShapes returns the per-sample shape of each declared input, in
// InputNames order (a copy of the list; the shapes are read-only).
func (d *Deployment) InputShapes() []tensor.Shape { return append([]tensor.Shape(nil), d.inPer...) }

// warmup probes every replica with one zero-input request, verifying
// the backend end to end and seeding the observed-latency EWMA with the
// engine time the replica reports for it.
func (d *Deployment) warmup() error {
	inputs := make(map[string]*tensor.Tensor, len(d.inputNames))
	for i, name := range d.inputNames {
		inputs[name] = tensor.New(tensor.FP32, append(tensor.Shape{1}, d.inPer[i]...)...)
	}
	for _, r := range d.replicas {
		probed := make(chan error, 1)
		err := r.server.Submit(context.Background(), inputs, func(_ map[string]*tensor.Tensor, service time.Duration, err error) {
			r.observe(service, err)
			probed <- err
		})
		if err == nil {
			err = <-probed
		}
		if err != nil {
			return fmt.Errorf("cluster: warmup replica %d (%s, %s): %w", r.id, r.module, r.Backend(), err)
		}
	}
	return nil
}

// Submit admits one request without blocking for its result; the
// returned Ticket resolves through Wait. With QueueDepth tickets
// already outstanding it sheds the request with ErrOverloaded.
func (d *Deployment) Submit(inputs map[string]*tensor.Tensor) (*Ticket, error) {
	return d.SubmitCtx(context.Background(), inputs)
}

// SubmitCtx is Submit with the caller's context attached: the request
// is routed here, on the caller's goroutine, and handed to the chosen
// replica's queue, which has room for every admitted ticket. If the
// context ends while the request is still queued there it resolves with
// the context error without consuming replica time. A request already
// running on an engine completes normally (dispatches are not
// preemptible); its result is simply discarded by the caller. The
// ticket resolves on the replica's dispatcher goroutine. An input map
// the model's signature refuses (inference.CheckInputs) is refused here,
// before it counts as submitted.
func (d *Deployment) SubmitCtx(ctx context.Context, inputs map[string]*tensor.Tensor) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.closed.Load() {
		return nil, ErrClosed
	}
	rows, err := inference.CheckInputs(d.inputNames, d.inPer, inputs)
	if err != nil {
		return nil, err
	}
	// Counted shed or not: Submitted == Completed + Rejected must hold.
	d.submitted.Add(1)
	if d.inflight.Add(1) > int64(d.serve.QueueDepth) {
		d.inflight.Add(-1)
		d.rejected.Add(1)
		return nil, ErrOverloaded
	}
	r := d.pick()
	tk := &Ticket{done: make(chan struct{}), start: time.Now(), replica: r}
	r.inflight.Add(1)
	resolve := func(outs map[string]*tensor.Tensor, err error, service time.Duration) {
		if errors.Is(err, microserver.ErrClosed) {
			err = ErrClosed
		}
		r.inflight.Add(-1)
		// The replica timed its engine run, queue wait excluded; a
		// coalesced ticket carries `rows` samples in that one run, so the
		// EWMA tracks per-sample service rather than congestion or batch
		// size — congestion is already priced into the routing cost via
		// the inflight factor, and the front door's adaptive batching
		// must not read as a slower replica.
		r.observe(service/time.Duration(rows), err)
		if err != nil && ctx.Err() != nil {
			d.cancelled.Add(1)
		}
		tk.outs, tk.err = outs, err
		tk.latency = time.Since(tk.start)
		// The slot is free before the waiter wakes: a caller that
		// resubmits on completion is never shed by its own ticket.
		d.inflight.Add(-1)
		d.completed.Add(1)
		close(tk.done)
	}
	err = r.server.Submit(ctx, inputs, func(outs map[string]*tensor.Tensor, service time.Duration, err error) {
		if wait := r.modeled - time.Since(tk.start); d.emulate && err == nil && wait > 0 {
			time.AfterFunc(wait, func() { resolve(outs, nil, service) })
			return
		}
		resolve(outs, err, service)
	})
	if err != nil {
		// The caller vanished or close landed since the checks above.
		resolve(nil, err, 0)
	}
	return tk, nil
}

// Infer admits one request and blocks until its result is ready.
func (d *Deployment) Infer(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	tk, err := d.Submit(inputs)
	if err != nil {
		return nil, err
	}
	return tk.Wait()
}

// InferCtx is Infer bound to a caller context.
func (d *Deployment) InferCtx(ctx context.Context, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	tk, err := d.SubmitCtx(ctx, inputs)
	if err != nil {
		return nil, err
	}
	return tk.WaitCtx(ctx)
}

// InferSingle is the single-tensor shortcut for 1-in/1-out models.
func (d *Deployment) InferSingle(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(d.inputNames) != 1 || len(d.outputNames) != 1 {
		return nil, fmt.Errorf("cluster: InferSingle wants 1 input/1 output, model %q has %d/%d",
			d.model, len(d.inputNames), len(d.outputNames))
	}
	outs, err := d.Infer(map[string]*tensor.Tensor{d.inputNames[0]: in})
	if err != nil {
		return nil, err
	}
	return outs[d.outputNames[0]], nil
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
// tie-break. Deployment.pick and SimulateTrace both route through it.
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
// server closes — its running ticket completes and its queued tickets
// resolve with ErrClosed. Completions parked on an EmulateLatency timer
// resolve when it fires.
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
	// Submitted counts every admission attempt, shed ones included.
	Submitted int64
	Completed int64
	Rejected  int64
	// Cancelled counts admitted tickets whose caller context ended
	// before a replica ran them; they are a subset of Completed, so the
	// invariant Submitted == Completed + Rejected still holds.
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

// Ticket is one admitted request; Wait blocks for its result.
type Ticket struct {
	outs    map[string]*tensor.Tensor
	err     error
	done    chan struct{}
	start   time.Time
	latency time.Duration
	replica *Replica
}

// Wait blocks until the request resolves.
func (t *Ticket) Wait() (map[string]*tensor.Tensor, error) {
	<-t.done
	return t.outs, t.err
}

// WaitCtx is Wait that also aborts when the given context ends. An
// abort does not invalidate the ticket: if the request was submitted
// with a different (still-live) context it keeps its place in the
// replica's queue, and a later Wait can still collect the result.
func (t *Ticket) WaitCtx(ctx context.Context) (map[string]*tensor.Tensor, error) {
	select {
	case <-t.done:
		return t.outs, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Latency returns the admission-to-completion latency; valid after
// Wait.
func (t *Ticket) Latency() time.Duration {
	<-t.done
	return t.latency
}

// Replica returns the fleet member the request was routed to; valid
// after Wait.
func (t *Ticket) Replica() *Replica {
	<-t.done
	return t.replica
}

// Replica is one fleet member: a backend-generic server bound to a
// chassis slot.
type Replica struct {
	id     int
	slot   int
	module string
	server *microserver.Server
	// modeled is the backend's roofline-predicted batch-1 latency, zero
	// when the backend has no device model (host CPU engine).
	modeled time.Duration
	idleW   float64
	maxW    float64
	// enclave is the replica's modeled trusted execution context, set
	// only on artifact deployments (its measurement binds the artifact
	// digest); nil for in-process Deploy graphs.
	enclave *tee.Enclave

	inflight atomic.Int64
	served   atomic.Int64
	failed   atomic.Int64
	shed     atomic.Int64
	// ewmaNS is the EWMA, in nanoseconds, of the engine time per row the
	// replica's server measured around each run. Only served requests
	// feed it: shed, cancelled and failed ones never measured a
	// completed run and would skew routing for the wrong reason.
	ewmaNS atomic.Int64
}

// ID returns the replica's index within its deployment.
func (r *Replica) ID() int { return r.id }

// Slot returns the chassis slot the replica is bound to.
func (r *Replica) Slot() int { return r.slot }

// Module names the compute module hosting the replica.
func (r *Replica) Module() string { return r.module }

// Backend names the inference backend the replica serves with.
func (r *Replica) Backend() string { return r.server.Backend() }

// Server exposes the replica's node server.
func (r *Replica) Server() *microserver.Server { return r.server }

// Enclave exposes the replica's modeled trusted execution context, nil
// for in-process Deploy graphs (only artifact deployments attest).
func (r *Replica) Enclave() *tee.Enclave { return r.enclave }

// ServiceEstimate is the per-request service time the router weighs:
// the roofline prediction when the backend has a device model,
// otherwise the EWMA of measured engine time per row (seeded by the
// deploy warm-up), otherwise 1 ms.
func (r *Replica) ServiceEstimate() time.Duration {
	if r.modeled > 0 {
		return r.modeled
	}
	if ewma := r.ewmaNS.Load(); ewma > 0 {
		return time.Duration(ewma)
	}
	return time.Millisecond
}

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

// observe folds one completed request, and the engine time per row it
// took, into the replica's telemetry. Only served requests update the
// EWMA: a shed or cancelled request never ran, and folding it in would
// skew the routing estimate (the admission-accounting bug this guards
// against).
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
		Modeled:  r.modeled,
		Observed: time.Duration(r.ewmaNS.Load()),
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
	// Modeled is the roofline-predicted batch-1 latency (zero without a
	// device model); Observed is the EWMA of measured engine time per
	// row; Estimate is Replica.ServiceEstimate, the one of the two the
	// router weighs.
	Modeled  time.Duration
	Observed time.Duration
	Estimate time.Duration
	MaxW     float64
}
