package artifact

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// allocatedBytes is the heap a call of f allocates, averaged over runs
// calls on a quiet heap.
func allocatedBytes(runs int, f func()) uint64 {
	f() // warm: one-time tables (crc32, sha256 dispatch) are not Verify's
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// verifySlack is the allocation Verify may make on top of its one
// file-sized re-encode buffer: the decoded graph's nodes, names and
// descriptors, the provenance and schema JSON, and the re-encoded small
// sections. It does not grow with the weights.
const verifySlack = 64 << 10

// TestVerifyMovesBytesOnce pins Verify's cost contract the way
// TestRunAllocations pins the engine's: the weights are read in place
// and copied once, into a buffer of the file's own size. A second copy
// (a weights blob beside the output, a buffer grown by doubling, a
// per-element staging slice) fails here.
func TestVerifyMovesBytesOnce(t *testing.T) {
	mlp := &Model{Graph: nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1})}
	for name, m := range map[string]*Model{"mlp": mlp, "gesture+schema": testModel(t)} {
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got := allocatedBytes(20, func() {
			if _, err := Verify(data); err != nil {
				t.Fatal(err)
			}
		})
		limit := uint64(len(data))*5/4 + verifySlack
		t.Logf("%s: Verify allocates %d bytes for a %d-byte artifact (limit %d)", name, got, len(data), limit)
		if got > limit {
			t.Errorf("%s: Verify allocates %d bytes for a %d-byte artifact, want at most %d", name, got, len(data), limit)
		}
	}
}

// TestEncodePortablePathMatches holds the bulk payload writer to the
// element-wise one, which is the format's definition and the only
// writer on a big-endian host: same bytes for every storage type, empty
// tensors included, whatever precedes them in the buffer.
func TestEncodePortablePathMatches(t *testing.T) {
	f32 := tensor.New(tensor.FP32, 3, 5)
	for i := range f32.F32 {
		f32.F32[i] = float32(i)*1.5 - 7.25
	}
	f32.F32[0] = float32(math.Copysign(0, -1))
	f16 := tensor.New(tensor.FP16, 7)
	for i := range f16.F16 {
		f16.F16[i] = uint16(0x3c00 + 257*i)
	}
	i8 := tensor.New(tensor.INT8, 2, 9)
	for i := range i8.I8 {
		i8.I8[i] = int8(i*29 - 128)
	}
	cases := map[string]*tensor.Tensor{
		"fp32": f32, "fp16": f16, "int8": i8,
		"fp32 empty": {DType: tensor.FP32, Shape: tensor.Shape{0}},
		"fp16 empty": {DType: tensor.FP16, Shape: tensor.Shape{0}},
		"int8 empty": {DType: tensor.INT8, Shape: tensor.Shape{0}},
	}
	for name, w := range cases {
		prefix := []byte{0xa5, 0x5a, 0x01} // an odd offset: nothing may assume alignment
		want := appendWeightPayloadPortable(append([]byte(nil), prefix...), w)
		got := appendWeightPayload(append([]byte(nil), prefix...), w)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bulk writer\n  %x\nportable writer\n  %x", name, got, want)
		}
		if len(want)-len(prefix) != w.SizeBytes() {
			t.Errorf("%s: payload is %d bytes, SizeBytes says %d", name, len(want)-len(prefix), w.SizeBytes())
		}
	}
}

// TestEncodeRejectsShortWeight: a tensor whose backing slice disagrees
// with its shape would make the descriptors lie about the payloads.
func TestEncodeRejectsShortWeight(t *testing.T) {
	m := &Model{Graph: nn.MLP("tiny", []int{16, 8, 4}, nn.BuildOptions{Weights: true, Seed: 7})}
	for _, n := range m.Graph.Nodes {
		if w := n.Weight(nn.WeightKey); w != nil {
			w.F32 = w.F32[:len(w.F32)-1]
			break
		}
	}
	if _, err := m.Encode(); err == nil {
		t.Fatal("Encode accepted a weight shorter than its shape")
	}
}

// sectionHeaders walks a well-formed container and returns the file
// offset of each section's header.
func sectionHeaders(data []byte) map[string]int {
	hdrs := map[string]int{}
	off := fileHeaderLen
	for n := binary.LittleEndian.Uint32(data[8:]); n > 0; n-- {
		hdrs[string(data[off:off+4])] = off
		length := binary.LittleEndian.Uint64(data[off+8:])
		pad := binary.LittleEndian.Uint32(data[off+16:])
		off += sectionHeaderLen + int(pad) + int(length)
	}
	return hdrs
}

// TestVerifyRejectsAliasedWeights: descriptors may name any range of the
// weights section, so a hostile file can point all of them at one
// payload and carry only that one. Its canonical form holds every
// payload separately and is several times the file; Verify must refuse
// it by size, without first allocating that form.
func TestVerifyRejectsAliasedWeights(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("finding a payload by its view needs a little-endian host")
	}
	g := nn.MLP("wide", []int{256, 256, 256, 256, 256}, nn.BuildOptions{Weights: true, Seed: 3})
	data, err := (&Model{Graph: g}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	hdrs := sectionHeaders(data)
	graphStart := hdrs[TagGraph] + sectionHeaderLen
	graphSec := data[graphStart : graphStart+int(binary.LittleEndian.Uint64(data[hdrs[TagGraph]+8:]))]
	blobStart := len(data) - int(binary.LittleEndian.Uint64(data[hdrs[TagWeights]+8:]))
	// A decoded weight is a view into the file image, which says where
	// its payload lies; its descriptor is the next place in the graph
	// section holding that offset followed by that length. Every layer's
	// descriptor is rewritten to the first layer's.
	first := map[string][]byte{}
	keep, cursor := 0, 0
	for _, n := range loaded.Graph.Nodes {
		for _, key := range n.WeightKeys() {
			w := n.Weight(key)
			at := int(uintptr(unsafe.Pointer(&w.F32[0])) - uintptr(unsafe.Pointer(&data[blobStart])))
			desc := binary.LittleEndian.AppendUint64(nil, uint64(at))
			desc = binary.LittleEndian.AppendUint64(desc, uint64(w.SizeBytes()))
			i := bytes.Index(graphSec[cursor:], desc)
			if i < 0 {
				t.Fatalf("node %s weight %s: descriptor %x not found", n.Name, key, desc)
			}
			if first[key] == nil {
				first[key] = desc
				keep = max(keep, at+w.SizeBytes())
			}
			copy(graphSec[cursor+i:], first[key])
			cursor += i + len(desc)
		}
	}
	// Drop the payloads nothing names any more and re-seal the sections.
	binary.LittleEndian.PutUint64(data[hdrs[TagWeights]+8:], uint64(keep))
	data = reseal(data[:blobStart+keep])
	if m, err := Decode(data); err != nil {
		t.Fatalf("Decode of the aliased artifact: %v (the test wants it to reach Verify's re-encode)", err)
	} else if int(m.Graph.WeightBytes()) < 3*len(data) {
		t.Fatalf("aliased artifact describes %d weight bytes in %d: no amplification to refuse", m.Graph.WeightBytes(), len(data))
	}
	got := allocatedBytes(5, func() {
		if _, err := Verify(data); err == nil {
			t.Fatal("Verify accepted an artifact whose weights alias one payload")
		}
	})
	if got > verifySlack {
		t.Errorf("Verify allocated %d bytes rejecting a %d-byte aliased artifact, want at most %d", got, len(data), verifySlack)
	}
}

// reseal returns a copy of data with every section CRC it can reach
// rewritten to match the section's payload, so a mutated payload gets
// past the container check and into the graph, schema and provenance
// decoders behind it.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < fileHeaderLen {
		return out
	}
	off := fileHeaderLen
	for n := binary.LittleEndian.Uint32(out[8:]); n > 0 && len(out)-off >= sectionHeaderLen; n-- {
		length := binary.LittleEndian.Uint64(out[off+8:])
		start := off + sectionHeaderLen + int(binary.LittleEndian.Uint32(out[off+16:])%(2*WeightAlign))
		if start > len(out) || length > uint64(len(out)-start) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[start:start+int(length)]))
		off = start + int(length)
	}
	return out
}

// FuzzArtifactVerify feeds Verify arbitrary bytes (ROADMAP 3a: .vedz is
// the first untrusted decoder a fleet node meets), as they are and with
// their section CRCs re-sealed. It must never panic or allocate more
// than a small multiple of its input, and whatever it accepts must be
// exactly what the model encodes back to, under the digest of the input.
// The seed corpus (testdata/fuzz) is the golden artifact and one variant
// per container check: truncated, bad CRC, padding over 64, duplicate
// section, trailing bytes, weight offset out of range.
func FuzzArtifactVerify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, reseal(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := Verify(data)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+verifySlack); got > limit {
				t.Errorf("Verify allocated %d bytes on %d bytes of input, want at most %d", got, len(data), limit)
			}
			if err != nil {
				continue
			}
			if want := DigestBytes(data); m.Digest != want {
				t.Errorf("verified model carries digest %s, input digests to %s", m.Digest, want)
			}
			reenc, err := m.Encode()
			if err != nil {
				t.Fatalf("verified model does not encode: %v", err)
			}
			if !bytes.Equal(reenc, data) {
				t.Errorf("verified model encodes to %d bytes that differ from the %d verified", len(reenc), len(data))
			}
		}
	})
}
