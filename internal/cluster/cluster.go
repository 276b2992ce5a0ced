// Package cluster is the fleet-serving layer: it places model replicas
// onto the heterogeneous compute modules mounted in a RECS chassis
// (§II-A) and routes traffic across them. One replica is one
// backend-generic microserver.Server — the host CPU engine for plain
// compute modules, a Device-backed accel.Backend for modules that name
// an accelerator — so the whole fleet is driven through the single
// inference.Backend/Executable pair, the cluster-level extension of the
// paper's cross-accelerator methodology.
//
// A Scheduler owns one admission queue per deployed model. Requests
// enter through blocking Infer or asynchronous Submit/Wait, and a
// router assigns each to the replica with the lowest estimated
// completion cost: the backend's roofline-predicted latency (or an
// observed EWMA for backends without a device model) scaled by the
// replica's current queue depth, with a power-aware tie-break from the
// chassis module power envelope.
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
	// ErrOverloaded reports a full admission queue: the request was
	// shed, not queued.
	ErrOverloaded = errors.New("cluster: admission queue full")
	// ErrClosed reports a scheduler or deployment that has shut down.
	ErrClosed = errors.New("cluster: scheduler closed")
)

// Config tunes the fleet scheduler.
type Config struct {
	// QueueDepth is the per-model admission queue capacity (default 64).
	// Submit sheds load with ErrOverloaded once it is full.
	QueueDepth int
	// Serve configures each replica's batching server.
	Serve microserver.ServeConfig
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
	return s.deploy(m.Graph, schema, reg.Plans(), m.Digest, artifact.SchemaDigest(schema), slots)
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
	return s.deploy(g, s.cfg.Schema, nil, "", "", slots)
}

// deploy is the shared placement path: one replica server per slot,
// each compiled for its module's backend — directly for in-process
// graphs, or through the fleet-wide plan cache when deploying an
// artifact (plans non-nil, digest set).
func (s *Scheduler) deploy(g *nn.Graph, schema *nn.QuantSchema, plans *inference.PlanCache, digest, schemaDigest string, slots []int) (*Deployment, error) {
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

	d := &Deployment{
		model:       g.Name,
		digest:      digest,
		inputNames:  append([]string(nil), g.Inputs...),
		outputNames: append([]string(nil), g.Outputs...),
		queue:       make(chan *Ticket, s.cfg.QueueDepth),
		quit:        make(chan struct{}),
		emulate:     s.cfg.EmulateLatency,
	}
	for _, idx := range slots {
		if idx < 0 || idx >= len(s.chassis.Slots) {
			d.closeReplicas()
			return nil, fmt.Errorf("cluster: %s has no slot %d", s.chassis.Name, idx)
		}
		slot := s.chassis.Slots[idx]
		mod := slot.Module()
		if mod == nil || !slot.Powered() {
			d.closeReplicas()
			return nil, fmt.Errorf("cluster: slot %d has no powered module", idx)
		}
		backend, err := BackendForModule(mod, schema)
		if err != nil {
			d.closeReplicas()
			return nil, err
		}
		var srv *microserver.Server
		if plans != nil {
			exe, _, cerr := plans.Compile(planKey(digest, backend, schemaDigest), backend, g, s.cfg.Serve.EngineOptions...)
			if cerr == nil {
				srv, err = microserver.ServeCompiled(g, exe, backend.Name(), s.cfg.Serve)
			} else {
				err = cerr
			}
		} else {
			srv, err = microserver.ServeBackend(g, backend, s.cfg.Serve)
		}
		if err != nil {
			d.closeReplicas()
			return nil, fmt.Errorf("cluster: slot %d (%s): %w", idx, mod.Name, err)
		}
		r := &Replica{
			id:     len(d.replicas),
			slot:   idx,
			module: mod.Name,
			server: srv,
			idleW:  mod.IdleW,
			maxW:   mod.MaxW,
		}
		if digest != "" {
			// Artifact deployments run inside a modeled enclave whose
			// measurement binds the replica's identity to the exact plan
			// it executes: artifact digest, backend, hosting module. The
			// attestation path (Deployment.Attest) quotes it.
			r.enclave = tee.NewEnclave(ReplicaImage(digest, backend.Name(), mod.Name), tee.SGXCosts())
		}
		// Any executable with a latency model feeds the router's cost
		// signal: roofline predictions from accel programs, measured
		// cycles-per-inference from SoC firmware.
		if p, ok := srv.Executable().(latencyModel); ok {
			if lat, err := p.PredictLatency(1); err == nil {
				r.modeled = lat
			}
		}
		d.replicas = append(d.replicas, r)
	}
	if err := d.warmup(g); err != nil {
		d.closeReplicas()
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		d.closeReplicas()
		return nil, ErrClosed
	}
	if _, dup := s.deployments[g.Name]; dup {
		d.closeReplicas()
		return nil, fmt.Errorf("cluster: model %q already deployed", g.Name)
	}
	s.deployments[g.Name] = d
	d.routerWG.Add(1)
	go d.route()
	return d, nil
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

// InferSingle is the single-tensor shortcut for 1-in/1-out models.
func (s *Scheduler) InferSingle(model string, in *tensor.Tensor) (*tensor.Tensor, error) {
	d, err := s.Deployment(model)
	if err != nil {
		return nil, err
	}
	return d.InferSingle(in)
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

// Close shuts every deployment down: queued requests are failed,
// in-flight ones complete, replica servers are released.
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

// Deployment is one model's fleet: its replicas, admission queue and
// router.
type Deployment struct {
	model string
	// digest is the content digest of the artifact the fleet runs, empty
	// for in-process Deploy graphs. It is the identity replica
	// attestation binds to the enclave measurement.
	digest      string
	inputNames  []string
	outputNames []string
	replicas    []*Replica
	emulate     bool

	queue    chan *Ticket
	quit     chan struct{}
	routerWG sync.WaitGroup
	reqWG    sync.WaitGroup

	// lifeMu serializes shutdown against admissions, mirroring the
	// microserver.Server pattern: Submit holds a read lock across its
	// enqueue so close cannot mark the deployment closed while a ticket
	// is between the closed-check and the queue.
	lifeMu sync.RWMutex
	closed bool

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
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

// warmup probes every replica with one zero-input request, verifying
// the backend end to end and seeding the observed-latency EWMA. Input
// shapes are read from the input nodes' declared Attrs.Shape — never
// via InferShapes, which would write OutShape on every node of a graph
// that, on the DeployArtifact path, is registry-shared across
// schedulers (and read-only by the artifact contract).
func (d *Deployment) warmup(g *nn.Graph) error {
	inputs := make(map[string]*tensor.Tensor, len(d.inputNames))
	for _, name := range d.inputNames {
		n := g.Node(name)
		if n == nil {
			return fmt.Errorf("cluster: graph %q missing input node %q", g.Name, name)
		}
		per := n.Attrs.Shape
		if len(per) == 0 {
			return fmt.Errorf("cluster: graph %q input %q declares no shape", g.Name, name)
		}
		inputs[name] = tensor.New(tensor.FP32, append(tensor.Shape{1}, per...)...)
	}
	for _, r := range d.replicas {
		start := time.Now()
		if _, err := r.server.InferMap(inputs); err != nil {
			return fmt.Errorf("cluster: warmup replica %d (%s, %s): %w", r.id, r.module, r.Backend(), err)
		}
		r.observe(time.Since(start), nil)
	}
	return nil
}

// Submit admits one request without blocking for its result; the
// returned Ticket resolves through Wait. A full admission queue sheds
// the request with ErrOverloaded.
func (d *Deployment) Submit(inputs map[string]*tensor.Tensor) (*Ticket, error) {
	return d.SubmitCtx(context.Background(), inputs)
}

// SubmitCtx is Submit with the caller's context attached to the ticket:
// if the context ends while the request is still queued — in the
// admission queue or a replica's batch queue — the request resolves
// with the context error without consuming replica time. A request
// already running on an engine completes normally (dispatches are not
// preemptible); its result is simply discarded by the caller.
func (d *Deployment) SubmitCtx(ctx context.Context, inputs map[string]*tensor.Tensor) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.lifeMu.RLock()
	defer d.lifeMu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	tk := &Ticket{ctx: ctx, ins: inputs, done: make(chan struct{}), start: time.Now()}
	// Counted shed or not: Submitted == Completed + Rejected must hold.
	d.submitted.Add(1)
	select {
	case d.queue <- tk:
		return tk, nil
	default:
		d.rejected.Add(1)
		return nil, ErrOverloaded
	}
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

// route is the deployment's router: it drains the admission queue and
// dispatches every ticket to the cheapest replica.
func (d *Deployment) route() {
	defer d.routerWG.Done()
	for {
		// Once shutdown has begun, fail queued tickets instead of
		// dispatching them, keeping close prompt and deterministic.
		select {
		case <-d.quit:
			d.drain()
			return
		default:
		}
		select {
		case tk := <-d.queue:
			d.dispatch(tk)
		case <-d.quit:
			d.drain()
			return
		}
	}
}

// drain fails tickets that were still queued when shutdown began. They
// count as completed (with ErrClosed), preserving the Stats invariant
// submitted == completed + rejected.
func (d *Deployment) drain() {
	for {
		select {
		case tk := <-d.queue:
			tk.err = ErrClosed
			d.completed.Add(1)
			close(tk.done)
		default:
			return
		}
	}
}

// dispatch routes one ticket: cost-aware replica selection, a hand-off
// into the replica's batching queue (which blocks while the replica is
// saturated — node-level backpressure that in turn fills the admission
// queue and sheds load), then asynchronous completion.
func (d *Deployment) dispatch(tk *Ticket) {
	// A caller that vanished while the ticket sat in the admission
	// queue is dropped here, before it costs a replica anything.
	if err := tk.ctx.Err(); err != nil {
		tk.err = err
		d.cancelled.Add(1)
		d.completed.Add(1)
		close(tk.done)
		return
	}
	r := d.pick()
	depth := r.inflight.Add(1)
	rows := batchRows(tk.ins, d.inputNames)
	start := time.Now()
	pending, err := r.server.SubmitMapCtx(tk.ctx, tk.ins)
	if err != nil {
		r.inflight.Add(-1)
		r.observe(0, err)
		if tk.ctx.Err() != nil {
			d.cancelled.Add(1)
		}
		tk.err = err
		tk.replica = r
		d.completed.Add(1)
		close(tk.done)
		return
	}
	d.reqWG.Add(1)
	go func() {
		defer d.reqWG.Done()
		outs, err := pending.Wait()
		wall := time.Since(start)
		if d.emulate && err == nil && r.modeled > wall {
			time.Sleep(r.modeled - wall)
			wall = r.modeled
		}
		r.inflight.Add(-1)
		// Normalize the observation to per-sample service time: wall
		// time ≈ depth × service when requests ahead serialize, and a
		// coalesced ticket carries `rows` samples in one dispatch, so
		// the EWMA tracks per-sample service rather than congestion or
		// batch size — congestion is already priced into the routing
		// cost via the inflight factor, and the front door's adaptive
		// batching must not read as a slower replica.
		r.observe(perSampleWall(wall, depth, rows), err)
		if err != nil && tk.ctx.Err() != nil {
			d.cancelled.Add(1)
		}
		tk.outs, tk.err = outs, err
		tk.replica = r
		tk.latency = time.Since(tk.start)
		d.completed.Add(1)
		close(tk.done)
	}()
}

// batchRows reads the number of coalesced samples a request carries:
// the leading (batch) dimension of its first declared input.
func batchRows(ins map[string]*tensor.Tensor, inputNames []string) int64 {
	if len(inputNames) > 0 {
		if t := ins[inputNames[0]]; t != nil && len(t.Shape) > 0 && t.Shape[0] > 1 {
			return int64(t.Shape[0])
		}
	}
	return 1
}

// perSampleWall normalizes an observed wall time by the replica queue
// depth at submission and the number of samples the ticket carried.
func perSampleWall(wall time.Duration, depth, rows int64) time.Duration {
	if depth < 1 {
		depth = 1
	}
	if rows < 1 {
		rows = 1
	}
	return wall / time.Duration(depth*rows)
}

// pick returns the replica with the lowest estimated completion cost:
// per-request service estimate scaled by queue depth. Costs within 2%
// of each other are considered tied and resolved toward the lower
// worst-case module power — the chassis power model's tie-break.
func (d *Deployment) pick() *Replica {
	var best *Replica
	var bestCost float64
	for _, r := range d.replicas {
		c := float64(r.inflight.Load()+1) * float64(r.ServiceEstimate())
		switch {
		case best == nil || c < 0.98*bestCost:
			best, bestCost = r, c
		case c <= 1.02*bestCost && r.maxW < best.maxW:
			best, bestCost = r, c
		}
	}
	return best
}

// close shuts the deployment down: admissions stop, queued tickets
// fail, in-flight requests complete, replica servers are released.
func (d *Deployment) close() {
	d.lifeMu.Lock()
	if d.closed {
		d.lifeMu.Unlock()
		return
	}
	d.closed = true
	close(d.quit)
	d.lifeMu.Unlock()
	d.routerWG.Wait()
	d.reqWG.Wait()
	d.closeReplicas()
}

func (d *Deployment) closeReplicas() {
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
			rs.Slot, rs.Module, rs.Backend, rs.Served, rs.Estimate().Round(time.Microsecond), rs.MaxW))
	}
	return lines
}

// Ticket is one admitted request; Wait blocks for its result.
type Ticket struct {
	ctx     context.Context
	ins     map[string]*tensor.Tensor
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
// queue, and a later Wait can still collect the result.
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

// Replica returns the fleet member that served the request; valid after
// Wait (nil for tickets failed by shutdown).
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
	// ewmaNS is the observed per-sample service-time EWMA in
	// nanoseconds. Only genuinely served requests feed it: shed and
	// cancelled requests carry queueing (not service) time and would
	// skew routing toward or away from a replica for the wrong reason.
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

// Server exposes the replica's batching server.
func (r *Replica) Server() *microserver.Server { return r.server }

// Enclave exposes the replica's modeled trusted execution context, nil
// for in-process Deploy graphs (only artifact deployments attest).
func (r *Replica) Enclave() *tee.Enclave { return r.enclave }

// ModeledLatency returns the roofline-predicted batch-1 latency, zero
// for backends without a device model.
func (r *Replica) ModeledLatency() time.Duration { return r.modeled }

// ServiceEstimate is the per-request service time the router weighs:
// the roofline prediction when the backend has a device model,
// otherwise the observed EWMA (seeded by the deploy warm-up).
func (r *Replica) ServiceEstimate() time.Duration {
	if r.modeled > 0 {
		return r.modeled
	}
	if ewma := r.ewmaNS.Load(); ewma > 0 {
		return time.Duration(ewma)
	}
	return time.Millisecond
}

// isShed reports whether an error is load shedding or caller
// disappearance rather than a replica fault: such requests never ran,
// so they must stay out of both the failure count and the service-time
// EWMA the router weighs.
func isShed(err error) bool {
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// observe folds one completed request into the replica's telemetry.
// Only served requests update the EWMA: a shed or cancelled request
// measured queueing time, not service time, and folding it in would
// skew the routing estimate (the admission-accounting bug this guards
// against).
func (r *Replica) observe(wall time.Duration, err error) {
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
		next := int64(wall)
		if old > 0 {
			next = old + (int64(wall)-old)/4
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
	// device model); Observed is the measured per-request EWMA.
	Modeled  time.Duration
	Observed time.Duration
	MaxW     float64
}

// Estimate mirrors Replica.ServiceEstimate on the snapshot: the
// roofline prediction when a device model exists, the observed EWMA
// otherwise.
func (rs ReplicaStats) Estimate() time.Duration {
	if rs.Modeled > 0 {
		return rs.Modeled
	}
	return rs.Observed
}
