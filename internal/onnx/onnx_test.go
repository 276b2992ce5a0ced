package onnx

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	"vedliot/internal/zoo"
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
	// Outputs and behaviour: identical statistics.
	want, err := g.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.MACs != want.MACs || got.Params != want.Params || got.TotalActivationBytes != want.TotalActivationBytes {
		t.Errorf("decoded stats %d MACs / %d params / %d activation bytes, want %d / %d / %d",
			got.MACs, got.Params, got.TotalActivationBytes, want.MACs, want.Params, want.TotalActivationBytes)
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

// frame wraps a body in a stream header: magic, version, the claimed
// body length and the body's true checksum.
func frame(claimed uint32, body []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	hdr := &writer{w: &buf}
	hdr.u32(Version)
	hdr.u32(claimed)
	sum := sha256.Sum256(body)
	buf.Write(sum[:])
	buf.Write(body)
	return buf.Bytes()
}

// tensorBody is the body of a one-node graph whose node carries one
// FP32 weight tensor of the given dims, followed by pad zero bytes
// where the tensor's payload would be: the decoder must judge the shape
// against the bytes that are left.
func tensorBody(pad int, dims ...int32) []byte {
	var buf bytes.Buffer
	bw := &writer{w: &buf}
	bw.str("g")
	bw.u32(1)
	bw.str("n")
	bw.str(nn.OpInput.String())
	bw.u32(0)
	for i := 0; i < 9+2; i++ { // int attributes, alpha, eps
		bw.u32(0)
	}
	bw.u32(0) // bias
	bw.u32(0) // shape rank
	bw.u32(1) // one weight
	bw.str("w")
	bw.u32(uint32(tensor.FP32))
	bw.u32(uint32(len(dims)))
	for _, d := range dims {
		bw.i32(d)
	}
	buf.Write(make([]byte, pad))
	return buf.Bytes()
}

type repro struct {
	name string
	data []byte
}

// decodeRepros are streams that made Decode allocate what their headers
// claim, or panic: a 44-byte header claiming a 256 MiB body, a 160-byte
// body whose tensor claims 1<<24 x 4 floats (256 MiB), and a 164-byte
// body whose tensor's element count overflows int.
func decodeRepros() []repro {
	return []repro{
		{"body-claims-256MiB", frame(256<<20, nil)},
		{"tensor-claims-256MiB", frame(160, tensorBody(56, 1<<24, 4))},
		{"tensor-count-wraps", frame(164, tensorBody(56, 1<<28, 1<<28, 1<<7))},
	}
}

// allocated is the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeSlack is what Decode may allocate on top of a small multiple of
// its input: the reader, the graph's maps and names.
const decodeSlack = 64 << 10

// TestDecodeAllocatesWhatIsPresent: a stream is refused without
// allocating what its header or a tensor's shape claims beyond the
// bytes actually present, and an element count that overflows is an
// error, not a panic.
func TestDecodeAllocatesWhatIsPresent(t *testing.T) {
	for _, r := range decodeRepros() {
		var err error
		got := allocated(func() { _, err = Decode(bytes.NewReader(r.data)) })
		if err == nil {
			t.Errorf("%s: decoded", r.name)
		}
		if got > decodeSlack {
			t.Errorf("%s: Decode allocated %d bytes on a %d-byte stream, want at most %d", r.name, got, len(r.data), decodeSlack)
		}
	}
}

// reseal returns a copy of data whose header claims exactly the bytes
// behind it, under their checksum, so a mutated body gets past the
// checksum and into the graph decoder.
func reseal(data []byte) []byte {
	const hdrLen = 44
	out := append([]byte(nil), data...)
	if len(out) < hdrLen {
		return out
	}
	binary.LittleEndian.PutUint32(out[8:], uint32(len(out)-hdrLen))
	sum := sha256.Sum256(out[hdrLen:])
	copy(out[12:hdrLen], sum[:])
	return out
}

// encode is Encode into a fresh buffer.
func encode(t testing.TB, g *nn.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzONNXDecode feeds Decode arbitrary bytes (ROADMAP 3a: VNNX is the
// interchange stream every toolchain stage reads back), as they are and
// resealed under a header that matches them. It must never panic or
// allocate more than a small multiple of its input, the tensors it
// decodes hold no more elements than the input has bytes, and whatever
// it decodes encodes and decodes again to the same graph. Seeds: the
// zoo mlp, the decodeRepros, and a small graph truncated in its header,
// under a bad magic and with a flipped body byte.
func FuzzONNXDecode(f *testing.F) {
	mlp, err := zoo.Find("mlp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encode(f, mlp.Build()))
	for _, r := range decodeRepros() {
		f.Add(r.data)
	}
	small := encode(f, nn.MLP("m", []int{4, 3, 2}, nn.BuildOptions{Weights: true}))
	f.Add(small[:20])
	f.Add(append([]byte("VNNY"), small[4:]...))
	flipped := append([]byte(nil), small...)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, reseal(data)} {
			var g *nn.Graph
			var err error
			if got, limit := allocated(func() { g, err = Decode(bytes.NewReader(data)) }), uint64(16*len(data)+decodeSlack); got > limit {
				t.Errorf("Decode allocated %d bytes on %d bytes of input, want at most %d", got, len(data), limit)
			}
			if err != nil {
				continue
			}
			elems := 0
			for _, n := range g.Nodes {
				for _, w := range n.Weights {
					elems += w.NumElements()
				}
			}
			if elems > len(data) {
				t.Errorf("decoded tensors hold %d elements, the input has %d bytes", elems, len(data))
			}
			enc := encode(t, g)
			back, err := Decode(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("decoded graph re-encodes to a stream Decode refuses: %v", err)
			}
			if again := encode(t, back); !bytes.Equal(again, enc) {
				t.Errorf("decoded graph re-decodes to a different graph: %d bytes against %d", len(again), len(enc))
			}
		}
	})
}
