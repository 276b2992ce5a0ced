package rvbackend_test

import (
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/rvbackend"
	"vedliot/internal/tensor"
)

func calibrate(t testing.TB, g *nn.Graph) *nn.QuantSchema {
	t.Helper()
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// requireBitExact asserts two output maps are bitwise identical: both
// paths dequantize identical int8 codes through identical parameters,
// so even the FP32 views must match exactly.
func requireBitExact(t *testing.T, name string, native, fw map[string]*tensor.Tensor) {
	t.Helper()
	if len(native) != len(fw) {
		t.Fatalf("%s: output count %d != %d", name, len(fw), len(native))
	}
	for k, nt := range native {
		ft, ok := fw[k]
		if !ok {
			t.Fatalf("%s: missing output %q", name, k)
		}
		if !nt.Shape.Equal(ft.Shape) {
			t.Fatalf("%s: output %q shape %v != %v", name, k, ft.Shape, nt.Shape)
		}
		for i := range nt.F32 {
			if nt.F32[i] != ft.F32[i] {
				t.Fatalf("%s: output %q diverges at %d: firmware %v, native %v",
					name, k, i, ft.F32[i], nt.F32[i])
			}
		}
	}
}

// TestFirmwareParityWithNativeEngine runs representative models through
// the native INT8 engine and the SoC firmware (both CFU and scalar
// variants) and requires bit-exact outputs.
func TestFirmwareParityWithNativeEngine(t *testing.T) {
	models := map[string]*nn.Graph{
		"tiny-mlp": nn.MLP("tiny", []int{16, 8, 4}, nn.BuildOptions{Weights: true, Seed: 7}),
		"gesture":  nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77}),
		"lenet":    nn.LeNet(12, 6, nn.BuildOptions{Weights: true, Seed: 5}),
	}
	for name, g := range models {
		t.Run(name, func(t *testing.T) {
			schema := calibrate(t, g)
			q, err := inference.CompileQuantized(g, schema)
			if err != nil {
				t.Fatal(err)
			}
			in, err := nn.SyntheticInput(g, 3, 11)
			if err != nil {
				t.Fatal(err)
			}
			want, err := q.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, noCFU := range []bool{false, true} {
				b := rvbackend.Backend{Schema: schema, NoCFU: noCFU}
				exe, err := b.Compile(g)
				if err != nil {
					t.Fatalf("%s: %v", b.Name(), err)
				}
				got, err := exe.Run(in)
				if err != nil {
					t.Fatalf("%s: %v", b.Name(), err)
				}
				requireBitExact(t, name+"/"+b.Name(), want, got)
			}
		})
	}
}

// TestCFUCycleSpeedup requires the vector-MAC firmware to beat the
// scalar firmware by at least 2x in measured cycles — the paper's whole
// argument for tightly coupled custom function units.
func TestCFUCycleSpeedup(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	schema := calibrate(t, g)
	cycles := map[bool]uint64{}
	for _, noCFU := range []bool{false, true} {
		exe, err := rvbackend.Backend{Schema: schema, NoCFU: noCFU}.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		p := exe.(*rvbackend.Program)
		if p.CyclesPerInference() == 0 {
			t.Fatalf("NoCFU=%v: warmup did not measure cycles", noCFU)
		}
		cycles[noCFU] = p.CyclesPerInference()
	}
	ratio := float64(cycles[true]) / float64(cycles[false])
	t.Logf("scalar %d cycles, cfu %d cycles, speedup %.2fx", cycles[true], cycles[false], ratio)
	if ratio < 2 {
		t.Errorf("CFU speedup %.2fx, want >= 2x", ratio)
	}
}

// TestPredictLatencyFromMeasuredCycles checks the router cost signal:
// linear in batch, derived from warmup-measured cycles.
func TestPredictLatencyFromMeasuredCycles(t *testing.T) {
	g := nn.MLP("tiny", []int{16, 8, 4}, nn.BuildOptions{Weights: true, Seed: 7})
	schema := calibrate(t, g)
	exe, err := rvbackend.Backend{Schema: schema}.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	p := exe.(*rvbackend.Program)
	d1, err := p.PredictLatency(1)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := p.PredictLatency(4)
	if err != nil {
		t.Fatal(err)
	}
	if d1 <= 0 || d4 != 4*d1 {
		t.Errorf("latency not linear in batch: %v vs %v", d1, d4)
	}
	if _, err := p.PredictLatency(0); err == nil {
		t.Error("PredictLatency(0) should fail")
	}
	info := p.Image()
	if info.TextWords == 0 || info.Segments == 0 || !info.UseCFU {
		t.Errorf("unexpected firmware info %+v", info)
	}
}
