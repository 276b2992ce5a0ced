package cluster

import (
	"path/filepath"
	"sync"
	"testing"

	"vedliot/internal/artifact"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// exportGesture saves the gesture model as a .vedz artifact and
// returns its path. withSchema embeds a calibrated activation schema
// (INT8-capable modules then serve on the native quantized engine —
// deliberately not bit-exact with FP32 replicas).
func exportGesture(t *testing.T, withSchema bool) (string, *nn.Graph, *nn.QuantSchema) {
	t.Helper()
	g := gestureModel()
	var schema *nn.QuantSchema
	if withSchema {
		samples, err := nn.SyntheticCalibration(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := optimize.Calibrate(g, samples)
		if err != nil {
			t.Fatal(err)
		}
		schema = s
	}
	path := filepath.Join(t.TempDir(), "gesture.vedz")
	if err := artifact.Save(path, &artifact.Model{Graph: g, Schema: schema}); err != nil {
		t.Fatal(err)
	}
	return path, g, schema
}

func TestRegistryAddGetNames(t *testing.T) {
	path, g, _ := exportGesture(t, true)
	reg := NewRegistry()
	m, err := reg.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Digest == "" {
		t.Fatal("loaded model has no digest")
	}
	got, err := reg.Get(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("Get returned a different model")
	}
	mlp := &artifact.Model{Graph: nn.MLP("tiny", []int{4, 3}, nn.BuildOptions{Weights: true, Seed: 1})}
	if _, err := mlp.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(mlp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []*artifact.Model{m, mlp} {
		if got, err := reg.Get(want.Graph.Name); err != nil || got != want {
			t.Fatalf("Get(%q) = %v, %v; want the registered model", want.Graph.Name, got, err)
		}
	}
	if err := reg.Add(m); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if _, err := reg.Get("nope"); err == nil {
		t.Fatal("Get of unknown model succeeded")
	}
	if err := reg.Add(&artifact.Model{Graph: g}); err == nil {
		t.Fatal("Add accepted a model without digest")
	}
}

// TestDeployArtifactParity is the acceptance contract: a model
// exported to .vedz (FP32, no schema — the whole fleet stays on the
// bit-exact functional path) reloads and serves through the cluster
// with bitwise-identical outputs to the reference engine.
func TestDeployArtifactParity(t *testing.T) {
	path, g, _ := exportGesture(t, false)
	reg := NewRegistry()
	if _, err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}

	fromArt := NewScheduler(urecsFleet(t), Config{Registry: reg})
	defer fromArt.Close()
	dep, err := fromArt.DeployArtifact(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Replicas()) != 3 {
		t.Fatalf("artifact deploy placed %d replicas, want 3", len(dep.Replicas()))
	}

	for seed := 0; seed < 8; seed++ {
		in := gestureInput(seed)
		want, err := eng.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := single(dep, g, in)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("seed %d: artifact-served output differs from the reference engine by %g", seed, d)
		}
	}
}

// TestDeployArtifactSharesPlans pins the cold-start win: replicas of
// one artifact on same-backend modules share one compiled plan through
// the registry's fleet-wide cache.
func TestDeployArtifactSharesPlans(t *testing.T) {
	path, g, _ := exportGesture(t, true)
	reg := NewRegistry()
	if _, err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	// Two identical CPU modules -> one plan, one hit.
	chassis := microserver.NewURECS()
	for slot := 0; slot < 2; slot++ {
		m, err := microserver.FindModule("SMARC ARM")
		if err != nil {
			t.Fatal(err)
		}
		if err := chassis.Insert(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	sched := NewScheduler(chassis, Config{Registry: reg})
	defer sched.Close()
	dep, err := sched.DeployArtifact(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Replicas()) != 2 {
		t.Fatalf("placed %d replicas, want 2", len(dep.Replicas()))
	}
	st := reg.Plans().Stats()
	if st.Entries != 1 {
		t.Fatalf("plan cache holds %d plans, want 1 (CPU replicas share the plan)", st.Entries)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("plan cache stats %+v, want 1 hit / 1 miss", st)
	}
	// The replicas literally share one executable.
	exes := map[inference.Executable]bool{}
	for _, r := range dep.Replicas() {
		exes[r.Server().Executable()] = true
	}
	if len(exes) != 1 {
		t.Fatalf("replicas hold %d distinct executables, want 1 shared plan", len(exes))
	}
}

// TestDeployArtifactHeterogeneousKeys pins key discipline: distinct
// backends of one artifact get distinct plans, and a second scheduler
// on the same registry reuses all of them (fleet-wide cache).
func TestDeployArtifactHeterogeneousKeys(t *testing.T) {
	path, g, _ := exportGesture(t, true)
	reg := NewRegistry()
	if _, err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	first := NewScheduler(urecsFleet(t), Config{Registry: reg})
	defer first.Close()
	if _, err := first.DeployArtifact(g.Name); err != nil {
		t.Fatal(err)
	}
	st := reg.Plans().Stats()
	if st.Entries != 3 || st.Misses != 3 {
		t.Fatalf("after first fleet: %+v, want 3 distinct plans", st)
	}

	second := NewScheduler(urecsFleet(t), Config{Registry: reg})
	defer second.Close()
	if _, err := second.DeployArtifact(g.Name); err != nil {
		t.Fatal(err)
	}
	st = reg.Plans().Stats()
	if st.Entries != 3 || st.Hits != 3 {
		t.Fatalf("after second fleet: %+v, want every plan reused", st)
	}
}

func TestDeployArtifactRequiresRegistry(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{})
	defer sched.Close()
	if _, err := sched.DeployArtifact("gesture"); err == nil {
		t.Fatal("DeployArtifact without registry succeeded")
	}
}

// TestDeployArtifactConcurrentSchedulers pins the read-only contract
// of registry-shared artifacts: concurrent DeployArtifact from two
// schedulers must not mutate (or race on) the shared graph. Run under
// -race in CI.
func TestDeployArtifactConcurrentSchedulers(t *testing.T) {
	path, g, _ := exportGesture(t, false)
	reg := NewRegistry()
	if _, err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched := NewScheduler(urecsFleet(t), Config{Registry: reg})
			defer sched.Close()
			dep, err := sched.DeployArtifact(g.Name)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := single(dep, g, gestureInput(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
