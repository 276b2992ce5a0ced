package accel

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
	"vedliot/internal/zoo"
)

func TestBackendCompileAndRun(t *testing.T) {
	dev, err := FindDevice("Xavier NX")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(dev)
	g := nn.GestureNet(32, 4, nn.BuildOptions{Weights: true, Seed: 42})
	exe, err := b.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := exe.(*Program)
	if !ok {
		t.Fatalf("Compile returned %T, want *Program", exe)
	}

	// Functional execution is bit-accurate with the host CPU engine.
	cpu, err := inference.CPUBackend{}.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 2, 1, 32, 32)
	for i := range in.F32 {
		in.F32[i] = float32(i%11)/11 - 0.5
	}
	inputs := map[string]*tensor.Tensor{g.Inputs[0]: in}
	want, err := cpu.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		d, err := tensor.MaxAbsDiff(w, got[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d != 0 {
			t.Errorf("%s: accel program diverges from CPU engine by %g", name, d)
		}
	}

	// Modeled latency comes from the roofline and improves with batch.
	l1, err := prog.PredictLatency(1)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := prog.Predict(8)
	if err != nil {
		t.Fatal(err)
	}
	if l1 <= 0 {
		t.Errorf("batch-1 latency = %v", l1)
	}
	perInf1 := float64(l1)
	perInf8 := m8.LatencyMS * float64(1e6) / 8 // ns per inference at batch 8
	if perInf8 >= perInf1 {
		t.Errorf("batching did not amortize: %v ns/inf at b=1 vs %v at b=8", perInf1, perInf8)
	}
}

func TestBackendRejectsUnsupportedPrecision(t *testing.T) {
	dev, err := FindDevice("EdgeTPU SoM") // INT8-only ASIC
	if err != nil {
		t.Fatal(err)
	}
	b := &Backend{Device: dev, Precision: tensor.FP32}
	g := nn.MLP("m", []int{4, 2}, nn.BuildOptions{Weights: true, Seed: 1})
	if _, err := b.Compile(g); err == nil {
		t.Error("compile succeeded at a precision the device does not support")
	}
}

// TestCompileSharedGraphConcurrently compiles one graph for two device
// types at once, as two schedulers placing one registry artifact do: the
// graph is shared and read-only, so Compile must not write to it (the
// race detector sees the write), and each program's device model must be
// what a compile on its own derives.
func TestCompileSharedGraphConcurrently(t *testing.T) {
	g := nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 91})
	names := []string{"Xavier NX", "EdgeTPU SoM"}
	alone := make([]time.Duration, len(names))
	backends := make([]*Backend, len(names))
	for i, name := range names {
		dev, err := FindDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = NewBackend(dev)
		exe, err := backends[i].Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		if alone[i], err = exe.(*Program).PredictLatency(1); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				exe, err := backends[i].Compile(g)
				if err != nil {
					t.Error(err)
					return
				}
				if lat, err := exe.(*Program).PredictLatency(1); err != nil || lat != alone[i] {
					t.Errorf("%s: concurrent compile predicts %v (%v), alone %v", names[i], lat, err, alone[i])
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSharedGraphReadersConcurrently runs the three reads a deployment
// makes of one zoo graph — a synthetic probe, the workload model and a
// backend compile — from several goroutines at once. The graph is
// shared and read-only, so none of them may write to it; the race
// detector sees a write.
func TestSharedGraphReadersConcurrently(t *testing.T) {
	entry, err := zoo.Find("mobilenetedge")
	if err != nil {
		t.Fatal(err)
	}
	g := entry.Build()
	dev, err := FindDevice("Xavier NX")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(dev)
	ws := make([]Workload, 3)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := nn.SyntheticInput(g, 1, i); err != nil {
				t.Error(err)
			}
			var err error
			if ws[i], err = WorkloadFromGraph(g, tensor.INT8); err != nil {
				t.Error(err)
			}
			if _, err := b.Compile(g); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, w := range ws {
		if w.OpsPerInference == 0 || w != ws[0] {
			t.Errorf("goroutine %d derived workload %+v, goroutine 0 %+v", i, w, ws[0])
		}
	}
}

// TestBackendINT8FollowsSchemaCoverage pins the INT8 rule accel takes
// from inference.QuantizedBackend: with a schema covering the graph the
// program runs the native quantized engine, bit for bit what
// inference.CompileQuantized computes; with a schema that leaves a gap
// it runs the FP32 engine, bit for bit what inference.Compile computes.
func TestBackendINT8FollowsSchemaCoverage(t *testing.T) {
	dev, err := FindDevice("EdgeTPU SoM") // INT8-only ASIC
	if err != nil {
		t.Fatal(err)
	}
	g := nn.GestureNet(32, 4, nn.BuildOptions{Weights: true, Seed: 42})
	calib, err := nn.SyntheticCalibration(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	covering, err := optimize.Calibrate(g, calib)
	if err != nil {
		t.Fatal(err)
	}
	partial := covering.Clone()
	delete(partial.Activations, g.Inputs[0])
	if _, err := inference.CompileQuantized(g, partial); !errors.Is(err, inference.ErrNotQuantizable) {
		t.Fatalf("partial schema compiles quantized (%v): the test needs a gap", err)
	}
	q, err := inference.CompileQuantized(g, covering)
	if err != nil {
		t.Fatal(err)
	}
	fp32, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in, err := nn.SyntheticInput(g, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		schema    *nn.QuantSchema
		quantized bool
		ref       inference.Executable
	}{
		{"covering", covering, true, q},
		{"partial", partial, false, fp32},
	} {
		exe, err := NewQuantizedBackend(dev, c.schema).Compile(g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := exe.(*Program).Quantized(); got != c.quantized {
			t.Errorf("%s schema: Quantized() = %v, want %v", c.name, got, c.quantized)
		}
		want, err := c.ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exe.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			o := got[name]
			if o == nil || !w.Shape.Equal(o.Shape) || len(o.F32) != len(w.F32) {
				t.Fatalf("%s schema: output %q missing or mis-shaped, want %v", c.name, name, w.Shape)
			}
			for i := range w.F32 {
				if math.Float32bits(o.F32[i]) != math.Float32bits(w.F32[i]) {
					t.Fatalf("%s schema: output %q[%d] = %v, reference %v", c.name, name, i, o.F32[i], w.F32[i])
				}
			}
		}
	}
}
