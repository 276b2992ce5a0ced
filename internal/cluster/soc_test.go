package cluster

import (
	"strings"
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/tensor"
)

// TestDeploySoCModule places a replica on the emulated RISC-V+CFU SoC
// module from an artifact that embeds its calibration schema: the fleet
// must serve it through the firmware backend, seed the router's
// estimate with the measured cycles-per-inference latency model, and
// return outputs bit-exact with the native INT8 engine. A schema-less
// artifact's deploy onto the SoC module is refused with an error that
// points at an artifact with an embedded schema.
func TestDeploySoCModule(t *testing.T) {
	path, g, schema := exportGesture(t, true)
	m, err := microserver.FindModule("RISC-V CFU SoM")
	if err != nil {
		t.Fatal(err)
	}
	c := microserver.NewURECS()
	if err := c.Insert(2, m); err != nil { // slot 2 accepts the CM4 form factor
		t.Fatal(err)
	}

	// SoC modules run INT8 firmware only: no schema, no replica.
	fp32 := NewScheduler(c, Config{Registry: packed(t, gestureModel())})
	defer fp32.Close()
	if _, err := fp32.DeployArtifact(g.Name); err == nil || !strings.Contains(err.Error(), "artifact with an embedded calibration schema") {
		t.Fatalf("schema-less artifact onto the SoC module returned %v, want a refusal naming an artifact with an embedded schema", err)
	}

	reg := NewRegistry()
	if _, err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(c, Config{Registry: reg})
	defer sched.Close()
	dep, err := sched.DeployArtifact(g.Name)
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
	p, ok := r.Server().Executable().(inference.LatencyModel)
	if !ok {
		t.Fatal("SoC replica has no measured-cycles latency model")
	}
	if lat, err := p.PredictLatency(1); err != nil || lat <= 0 {
		t.Fatalf("SoC latency model predicts %v, %v", lat, err)
	}

	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 3; seed++ {
		in := gestureInput(seed)
		want, err := q.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := single(dep, g, in)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("seed %d: SoC replica diverges from native INT8 engine by %v", seed, d)
		}
	}
}
