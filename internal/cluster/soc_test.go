package cluster

import (
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// TestDeploySoCModule places a replica on the emulated RISC-V+CFU SoC
// module: the fleet must serve it through the firmware backend, feed
// the router with the measured cycles-per-inference latency model, and
// return outputs bit-exact with the native INT8 engine.
func TestDeploySoCModule(t *testing.T) {
	g := gestureModel()
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		t.Fatal(err)
	}

	m, err := microserver.FindModule("RISC-V CFU SoM")
	if err != nil {
		t.Fatal(err)
	}
	// SoC modules run INT8 firmware only: no schema, no backend.
	if _, err := BackendForModule(m, nil); err == nil {
		t.Fatal("BackendForModule accepted a SoC module without a schema")
	}

	c := microserver.NewURECS()
	if err := c.Insert(2, m); err != nil { // slot 2 accepts the CM4 form factor
		t.Fatal(err)
	}
	sched := NewScheduler(c, Config{Schema: schema})
	defer sched.Close()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Replicas()) != 1 {
		t.Fatalf("deployed %d replicas, want 1", len(dep.Replicas()))
	}
	r := dep.Replicas()[0]
	if r.Backend() != "riscv-soc-cfu" {
		t.Fatalf("replica backend %q, want riscv-soc-cfu", r.Backend())
	}
	if r.modeled <= 0 {
		t.Fatal("SoC replica has no measured-cycles latency model")
	}

	q, err := inference.CompileQuantized(g, schema, inference.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 3; seed++ {
		in := gestureInput(seed)
		want, err := q.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dep.InferSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("seed %d: SoC replica diverges from native INT8 engine by %v", seed, d)
		}
	}
}
