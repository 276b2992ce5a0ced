package onnx

import (
	"bytes"
	"reflect"
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

func roundTrip(t *testing.T, g *nn.Graph) *nn.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestRoundTripPreservesStructure(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 15})
	back := roundTrip(t, g)
	if back.Name != g.Name || len(back.Nodes) != len(g.Nodes) {
		t.Fatalf("structure mismatch: %d vs %d nodes", len(back.Nodes), len(g.Nodes))
	}
	for i, n := range g.Nodes {
		bn := back.Nodes[i]
		if bn.Name != n.Name || bn.Op != n.Op {
			t.Fatalf("node %d: %s/%s vs %s/%s", i, bn.Name, bn.Op, n.Name, n.Op)
		}
		if len(bn.Inputs) != len(n.Inputs) {
			t.Fatalf("node %s inputs differ", n.Name)
		}
		if !reflect.DeepEqual(bn.Attrs, n.Attrs) {
			t.Fatalf("node %s attrs differ: %+v vs %+v", n.Name, bn.Attrs, n.Attrs)
		}
		for _, key := range n.WeightKeys() {
			w, bw := n.Weight(key), bn.Weight(key)
			if bw == nil {
				t.Fatalf("node %s lost weight %s", n.Name, key)
			}
			if !w.Shape.Equal(bw.Shape) || w.DType != bw.DType {
				t.Fatalf("node %s weight %s metadata differs", n.Name, key)
			}
			for j := range w.F32 {
				if w.F32[j] != bw.F32[j] {
					t.Fatalf("node %s weight %s payload differs at %d", n.Name, key, j)
				}
			}
		}
	}
	// Outputs and behaviour: identical shapes after inference.
	if err := back.InferShapes(1); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripINT8Weights(t *testing.T) {
	g := nn.NewGraph("q")
	g.MustAdd(&nn.Node{Name: "in", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{4}}})
	d := &nn.Node{Name: "fc", Op: nn.OpDense, Inputs: []string{"in"}, Attrs: nn.Attrs{OutC: 2, Bias: true}}
	w := tensor.New(tensor.INT8, 2, 4)
	w.Quant = tensor.QuantParams{Scale: 0.05, Zero: 3}
	for i := range w.I8 {
		w.I8[i] = int8(i*7 - 20)
	}
	d.SetWeight(nn.WeightKey, w)
	d.SetWeight(nn.BiasKey, tensor.New(tensor.FP32, 2))
	g.MustAdd(d)
	g.Outputs = []string{"fc"}

	back := roundTrip(t, g)
	bw := back.Node("fc").Weight(nn.WeightKey)
	if bw.DType != tensor.INT8 || bw.Quant.Scale != 0.05 || bw.Quant.Zero != 3 {
		t.Fatalf("quant metadata lost: %+v", bw.Quant)
	}
	for i := range w.I8 {
		if bw.I8[i] != w.I8[i] {
			t.Fatal("INT8 payload differs")
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	g := nn.MLP("m", []int{4, 3, 2}, nn.BuildOptions{Weights: true})
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-3] ^= 0x40 // corrupt a weight byte
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Error("corrupted stream decoded")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream decoded")
	}
	// Right magic, wrong version.
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{9, 0, 0, 0, 0, 0, 0, 0})
	buf.Write(make([]byte, 32))
	if _, err := Decode(&buf); err == nil {
		t.Error("future version decoded")
	}
}

func TestEncodeRejectsInvalidGraph(t *testing.T) {
	g := nn.NewGraph("bad")
	g.MustAdd(&nn.Node{Name: "x", Op: nn.OpReLU, Inputs: []string{"ghost"}})
	g.Outputs = []string{"x"}
	var buf bytes.Buffer
	if err := Encode(&buf, g); err == nil {
		t.Error("invalid graph encoded")
	}
}

func TestRoundTripExecutableEquivalence(t *testing.T) {
	// A decoded model must compute exactly the same function.
	g := nn.MotorNet(64, 5, nn.BuildOptions{Weights: true, Seed: 33})
	back := roundTrip(t, g)

	runOn := func(m *nn.Graph) []float32 {
		t.Helper()
		if err := m.InferShapes(1); err != nil {
			t.Fatal(err)
		}
		r, err := inference.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.New(tensor.FP32, 1, 1, 1, 64)
		for i := range in.F32 {
			in.F32[i] = float32(i%7) - 3
		}
		out, err := r.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		return out.F32
	}
	a, b := runOn(g), runOn(back)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
