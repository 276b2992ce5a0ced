package kenning

import (
	"fmt"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// ClusterTarget deploys through the fleet-serving layer: the model is
// placed on every powered module of a RECS chassis and each Infer is
// routed across the heterogeneous replicas by the cluster scheduler.
// This is the deployment pipeline's view of §II-A at cluster scale —
// the same load→optimize→compile→deploy→measure chain, but the
// "target" is a fleet instead of a single runtime. Reported latency is
// wall time through the scheduler (admission, routing, queueing and
// execution), the serving-side quantity a fleet operator measures.
type ClusterTarget struct {
	// Chassis is the populated platform to place replicas on.
	Chassis *microserver.Chassis
	// Config tunes the scheduler (admission bound, emulation, schema).
	Config cluster.Config

	sched *cluster.Scheduler
	model string
}

// Name implements Target.
func (t *ClusterTarget) Name() string {
	if t.Chassis == nil {
		return "cluster"
	}
	return "cluster:" + t.Chassis.Name
}

// Deploy implements Target: it builds a fresh scheduler on the chassis
// and places the model on every powered slot. Redeploying closes the
// previous fleet first.
func (t *ClusterTarget) Deploy(g *nn.Graph) error {
	if t.Chassis == nil {
		return fmt.Errorf("kenning: cluster target has no chassis")
	}
	if t.sched != nil {
		t.sched.Close()
		t.sched = nil
	}
	sched := cluster.NewScheduler(t.Chassis, t.Config)
	if _, err := sched.Deploy(g); err != nil {
		sched.Close()
		return err
	}
	t.sched = sched
	t.model = g.Name
	return nil
}

// Infer implements Target.
func (t *ClusterTarget) Infer(in *tensor.Tensor) (*tensor.Tensor, time.Duration, error) {
	if t.sched == nil {
		return nil, 0, fmt.Errorf("kenning: target not deployed")
	}
	start := time.Now()
	out, err := t.sched.InferSingle(t.model, in)
	return out, time.Since(start), err
}

// Scheduler exposes the live fleet (e.g. for routing telemetry in
// reports), nil before Deploy.
func (t *ClusterTarget) Scheduler() *cluster.Scheduler { return t.sched }

// Close releases the fleet. The target can be redeployed afterwards.
func (t *ClusterTarget) Close() {
	if t.sched != nil {
		t.sched.Close()
		t.sched = nil
	}
}

var _ Target = (*ClusterTarget)(nil)
