package artifact

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// testModel builds a small weighted CNN with a calibrated schema.
func testModel(t *testing.T) *Model {
	t.Helper()
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	samples, err := nn.SyntheticCalibration(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	return &Model{
		Graph:  g,
		Schema: schema,
		Prov:   Provenance{Tool: "test", Passes: []string{"fold-batchnorm"}},
	}
}

func TestRoundTripDeterministic(t *testing.T) {
	m := testModel(t)
	data1, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if m.Digest == "" {
		t.Fatal("Encode left Digest empty")
	}

	// Re-encode of the same model is byte-stable.
	data2, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("two encodes of the same model differ")
	}

	// Decode and re-save: byte-stable through a load/save cycle.
	loaded, err := Decode(data1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest != m.Digest {
		t.Fatalf("digest drifted through decode: %s vs %s", loaded.Digest, m.Digest)
	}
	resaved, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, resaved) {
		t.Fatal("re-save of loaded artifact is not byte-identical")
	}

	// An independently built identical model produces the same digest.
	again := testModel(t)
	data3, err := again.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != m.Digest {
		t.Fatalf("independent builds disagree on digest: %s vs %s", again.Digest, m.Digest)
	}
	if !bytes.Equal(data1, data3) {
		t.Fatal("independent builds encode differently")
	}
}

func TestRoundTripPreservesModel(t *testing.T) {
	m := testModel(t)
	loaded := reloaded(t, m)
	sameGraph(t, m.Graph, loaded.Graph)
	if len(loaded.Schema.Activations) != len(m.Schema.Activations) {
		t.Fatalf("schema drifted: %d vs %d values", len(loaded.Schema.Activations), len(m.Schema.Activations))
	}
	for name, q := range m.Schema.Activations {
		if loaded.Schema.Activations[name] != q {
			t.Fatalf("schema value %q drifted", name)
		}
	}
	if loaded.Prov.Tool != "test" || len(loaded.Prov.Passes) != 1 {
		t.Fatalf("provenance drifted: %+v", loaded.Prov)
	}

	// An INT8 weight keeps its quantization parameters and an FP16
	// weight its half-precision codes, bit for bit.
	g := nn.NewGraph("mixed")
	g.MustAdd(&nn.Node{Name: "in", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{4}}})
	q := &nn.Node{Name: "q", Op: nn.OpDense, Inputs: []string{"in"}, Attrs: nn.Attrs{OutC: 2, Bias: true}}
	w8 := tensor.New(tensor.INT8, 2, 4)
	w8.Quant = tensor.QuantParams{Scale: 0.05, Zero: 3}
	for i := range w8.I8 {
		w8.I8[i] = int8(i*7 - 20)
	}
	q.SetWeight(nn.WeightKey, w8)
	q.SetWeight(nn.BiasKey, tensor.New(tensor.FP32, 2))
	g.MustAdd(q)
	h := &nn.Node{Name: "h", Op: nn.OpDense, Inputs: []string{"q"}, Attrs: nn.Attrs{OutC: 3}}
	w16 := tensor.New(tensor.FP16, 3, 2)
	for i := range w16.F16 {
		w16.F16[i] = uint16(0x3c00 + 257*i)
	}
	h.SetWeight(nn.WeightKey, w16)
	g.MustAdd(h)
	g.Outputs = []string{"h"}
	sameGraph(t, g, reloaded(t, &Model{Graph: g}).Graph)
}

// reloaded is m encoded and decoded again.
func reloaded(t *testing.T, m *Model) *Model {
	t.Helper()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// sameGraph fails unless got is want node for node: names, ops, inputs,
// attributes, every weight's dtype, shape, quantization and payload
// bits, and the statistics computed from them.
func sameGraph(t *testing.T, want, got *nn.Graph) {
	t.Helper()
	if got.Name != want.Name || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("graph shape drifted: %s/%d vs %s/%d", got.Name, len(got.Nodes), want.Name, len(want.Nodes))
	}
	for i, n := range want.Nodes {
		ln := got.Nodes[i]
		if ln.Name != n.Name || ln.Op != n.Op {
			t.Fatalf("node %d drifted: %s/%s vs %s/%s", i, ln.Name, ln.Op, n.Name, n.Op)
		}
		if !reflect.DeepEqual(ln.Inputs, n.Inputs) {
			t.Fatalf("node %s inputs drifted: %v vs %v", n.Name, ln.Inputs, n.Inputs)
		}
		if !reflect.DeepEqual(ln.Attrs, n.Attrs) {
			t.Fatalf("node %s attrs drifted: %+v vs %+v", n.Name, ln.Attrs, n.Attrs)
		}
		if !reflect.DeepEqual(ln.WeightKeys(), n.WeightKeys()) {
			t.Fatalf("node %s weight keys drifted: %v vs %v", n.Name, ln.WeightKeys(), n.WeightKeys())
		}
		for _, key := range n.WeightKeys() {
			w, lw := n.Weight(key), ln.Weight(key)
			if !lw.Shape.Equal(w.Shape) || lw.DType != w.DType || lw.Quant != w.Quant {
				t.Fatalf("node %s weight %s drifted: %v %v %+v vs %v %v %+v",
					n.Name, key, lw.DType, lw.Shape, lw.Quant, w.DType, w.Shape, w.Quant)
			}
			if !bytes.Equal(payloadView(lw), payloadView(w)) {
				t.Fatalf("node %s weight %s payload drifted", n.Name, key)
			}
		}
	}
	ws, err := want.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := got.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if gs.MACs != ws.MACs || gs.Params != ws.Params || gs.TotalActivationBytes != ws.TotalActivationBytes {
		t.Fatalf("decoded stats %d MACs / %d params / %d activation bytes, want %d / %d / %d",
			gs.MACs, gs.Params, gs.TotalActivationBytes, ws.MACs, ws.Params, ws.TotalActivationBytes)
	}
}

// TestLoadedModelCompilesBitwiseIdentical is the deployment contract:
// an engine compiled from the reloaded artifact produces bitwise the
// outputs of an engine compiled from the in-process graph — for both
// the FP32 and the native INT8 plan.
func TestLoadedModelCompilesBitwiseIdentical(t *testing.T) {
	m := testModel(t)
	path := filepath.Join(t.TempDir(), "m.vedz")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	in, err := nn.SyntheticInput(m.Graph, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, a, b inference.Executable) {
		t.Helper()
		wantOuts, err := a.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		gotOuts, err := b.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for o, want := range wantOuts {
			if d, _ := tensor.MaxAbsDiff(want, gotOuts[o]); d != 0 {
				t.Fatalf("%s: output %q differs by %g", name, o, d)
			}
		}
	}
	srcFP, err := inference.Compile(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	artFP, err := inference.Compile(loaded.Graph)
	if err != nil {
		t.Fatal(err)
	}
	check("fp32", srcFP, artFP)

	srcQ, err := inference.CompileQuantized(m.Graph, m.Schema)
	if err != nil {
		t.Fatal(err)
	}
	artQ, err := inference.CompileQuantized(loaded.Graph, loaded.Schema)
	if err != nil {
		t.Fatal(err)
	}
	check("int8", srcQ, artQ)
}

func TestWeightAlignmentAndZeroCopy(t *testing.T) {
	m := testModel(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	secs, err := parseSections(data)
	if err != nil {
		t.Fatal(err)
	}
	blob := secs[TagWeights].payload
	// The weights payload starts at a WeightAlign boundary in the file
	// image (parseSections returns views, so pointer arithmetic gives
	// the file offset).
	start := uintptr(unsafe.Pointer(&data[0]))
	off := uintptr(unsafe.Pointer(&blob[0])) - start
	if off%WeightAlign != 0 {
		t.Fatalf("weights section starts at file offset %d, want %d-aligned", off, WeightAlign)
	}
	// On little-endian hosts every weight view aliases the decoded
	// image — zero-copy loading.
	if !hostLittleEndian {
		t.Skip("zero-copy views require a little-endian host")
	}
	loaded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	end := start + uintptr(len(data))
	for _, n := range loaded.Graph.Nodes {
		for _, key := range n.WeightKeys() {
			w := n.Weight(key)
			if w.DType != tensor.FP32 || w.NumElements() == 0 {
				continue
			}
			p := uintptr(unsafe.Pointer(&w.F32[0]))
			if p < start || p >= end {
				t.Fatalf("node %s weight %s is a copy, want a view into the file image", n.Name, key)
			}
			if p%4 != 0 {
				t.Fatalf("node %s weight %s view misaligned", n.Name, key)
			}
		}
	}
}

func TestRejectsCorruption(t *testing.T) {
	m := testModel(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"bad magic": func(b []byte) []byte {
			b[0] = 'X'
			return b
		},
		"bad version": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 99)
			return b
		},
		"flipped meta byte": func(b []byte) []byte {
			// First section payload begins after the 12-byte file header
			// and the 20-byte section header.
			b[34] ^= 0xff
			return b
		},
		"flipped weight byte": func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		},
		"truncated": func(b []byte) []byte {
			return b[:len(b)/2]
		},
		"truncated header": func(b []byte) []byte {
			return b[:8]
		},
		"trailing garbage": func(b []byte) []byte {
			return append(b, 0xde, 0xad)
		},
	}
	for name, corrupt := range cases {
		mutated := corrupt(append([]byte(nil), data...))
		if _, err := Decode(mutated); err == nil {
			t.Errorf("%s: Decode accepted corrupted artifact", name)
		}
	}
}

func TestVerifyCanonicalForm(t *testing.T) {
	m := testModel(t)
	path := filepath.Join(t.TempDir(), "m.vedz")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(data); err != nil {
		t.Fatalf("Verify rejected a freshly saved artifact: %v", err)
	}
}

func TestInspect(t *testing.T) {
	m := testModel(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != m.Digest {
		t.Fatalf("inspect digest %s, want %s", info.Digest, m.Digest)
	}
	if info.Model != m.Graph.Name || info.Nodes != len(m.Graph.Nodes) {
		t.Fatalf("inspect model summary drifted: %+v", info)
	}
	if info.SchemaValues != len(m.Schema.Activations) {
		t.Fatalf("inspect schema values %d, want %d", info.SchemaValues, len(m.Schema.Activations))
	}
	tags := make([]string, len(info.Sections))
	for i, s := range info.Sections {
		tags[i] = s.Tag
	}
	want := []string{TagMeta, TagGraph, TagSchema, TagWeights}
	if len(tags) != len(want) {
		t.Fatalf("sections %v, want %v", tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("sections %v, want %v", tags, want)
		}
	}
	if info.String() == "" {
		t.Fatal("empty info rendering")
	}
}

// TestEncodeRejectsInvalidGraph: Encode refuses an invalid or nil
// graph, and a schema that has no canonical form (a NaN scale), which
// would otherwise pack a model no fleet could serve as calibrated.
func TestEncodeRejectsInvalidGraph(t *testing.T) {
	g := nn.NewGraph("broken")
	m := &Model{Graph: g}
	if _, err := m.Encode(); err == nil {
		t.Fatal("Encode accepted an invalid graph")
	}
	if _, err := (&Model{}).Encode(); err == nil {
		t.Fatal("Encode accepted a nil graph")
	}
	m = testModel(t)
	for name, q := range m.Schema.Activations {
		q.Scale = float32(math.NaN())
		m.Schema.Activations[name] = q
		break
	}
	if _, err := m.Encode(); err == nil {
		t.Fatal("Encode accepted a schema with a NaN scale")
	}
}
