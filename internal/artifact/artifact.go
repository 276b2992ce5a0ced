// Package artifact implements the .vedz deployment artifact: the
// on-disk unit the toolchain ships to a fleet.
//
// The paper's toolchain story (§III) is train/optimize once, deploy
// everywhere: a model leaves the optimization pipeline as a reusable
// package that every node of a heterogeneous fleet loads, instead of
// re-running quantization, calibration and lowering at process start.
// A .vedz file is that package for this reproduction: one
// self-describing binary holding the nn.Graph structure, the weight
// payloads, the calibrated nn.QuantSchema and the optimizer provenance
// of one model.
//
// The format is versioned, deterministic and CRC-checked: the same
// Model always encodes to the same bytes (weight keys sorted, schema
// JSON canonical, no timestamps), so the SHA-256 content digest is
// stable across runs and machines and can key the fleet-wide
// compiled-plan cache (inference.PlanCache). The weights section stores
// raw little-endian payloads at 64-byte-aligned offsets, so Load can
// hand tensor buffers zero-copy views into the file image on
// little-endian hosts — a replica cold-start reads the file once and
// binds; the engines pack FP32 weights straight from those views. The
// one time weights are written again is Verify's canonical-form check,
// and that is one copy at memory speed: each payload goes, as the bytes
// of its backing slice, into a buffer sized for the whole file up
// front, which is then compared with the input byte for byte. The input
// is hashed once.
//
// Entry points: Save/Load round-trip a Model through a file,
// Encode/Decode through bytes, Inspect summarizes a file without
// trusting it, and Verify re-checks every integrity property
// (per-section CRCs, digest, canonical re-encoding, graph validity,
// schema coverage). cmd/vedliot-pack exposes all of them on the
// command line.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"vedliot/internal/nn"
)

// Format constants of the .vedz container.
const (
	// Magic is the 4-byte file signature.
	Magic = "VEDZ"
	// Version is the format version this package reads and writes.
	Version = 1
	// WeightAlign is the alignment (in bytes) of the weights section
	// payload and of every weight payload within it, chosen so FP32/FP16
	// views and cache lines never straddle a weight boundary.
	WeightAlign = 64
)

// Section tags, in the order sections appear in the file. The schema
// section is present only when the model carries a calibration schema.
const (
	// TagMeta is the provenance section (canonical JSON).
	TagMeta = "META"
	// TagGraph is the graph-structure section (binary, weight payloads
	// referenced by offset into the weights section).
	TagGraph = "GRPH"
	// TagSchema is the optional quantization-schema section
	// (nn.QuantSchema canonical JSON).
	TagSchema = "SCHM"
	// TagWeights is the aligned raw weight payload section.
	TagWeights = "WGTS"
)

// Provenance records where a model came from: the tool and optimizer
// passes that produced it. It is deliberately free of timestamps and
// host identity so that re-packing the same model yields the same
// bytes and therefore the same digest.
type Provenance struct {
	// Model names the packaged graph (mirrors Graph.Name).
	Model string `json:"model"`
	// Tool names the producer (e.g. "vedliot-pack", "kenning").
	Tool string `json:"tool,omitempty"`
	// Passes lists the optimization passes applied, in order.
	Passes []string `json:"passes,omitempty"`
	// Quantized names the weight-quantization granularity applied
	// ("per-channel", "per-tensor"), empty for FP32 weights.
	Quantized string `json:"quantized,omitempty"`
	// PrunedSparsity is the magnitude-pruning sparsity applied (0 = none).
	PrunedSparsity float64 `json:"pruned_sparsity,omitempty"`
	// Notes carries free-form producer notes.
	Notes string `json:"notes,omitempty"`
}

// Model is one deployable model: the graph with its weights, the
// optional activation calibration schema and the producer provenance.
type Model struct {
	// Graph is the operator graph including weight tensors.
	Graph *nn.Graph
	// Schema is the calibrated activation schema enabling native INT8
	// execution; nil for FP32-only artifacts.
	Schema *nn.QuantSchema
	// Prov is the producer provenance.
	Prov Provenance

	// Digest is the SHA-256 content digest ("sha256:<hex>") of the
	// encoded artifact; set by Save, Load, Encode and Decode. It is the
	// identity the plan cache and the cluster registry key on.
	Digest string
}

// DigestBytes computes the content digest of encoded artifact bytes.
func DigestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("sha256:%x", sum)
}

// Encode serializes the model to the deterministic .vedz byte form and
// returns it together with its content digest. The model's Digest
// field is updated.
func (m *Model) Encode() ([]byte, error) {
	data, err := m.encode(-1)
	if err != nil {
		return nil, err
	}
	m.Digest = DigestBytes(data)
	return data, nil
}

// encode is Encode without the digest: the small sections first, then
// one buffer of the file's exact size that every weight payload is
// copied into once. A want >= 0 is the only size the caller will take:
// any other fails before the buffer exists, so a hostile file whose
// descriptors all name one payload cannot make Verify allocate their
// sum.
func (m *Model) encode(want int) ([]byte, error) {
	if m.Graph == nil {
		return nil, fmt.Errorf("artifact: nil graph")
	}
	if err := m.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: refusing to encode invalid graph: %w", err)
	}
	prov := m.Prov
	prov.Model = m.Graph.Name

	meta, err := json.Marshal(prov)
	if err != nil {
		return nil, fmt.Errorf("artifact: encode provenance: %w", err)
	}
	graphSec, weights, weightLen, err := encodeGraph(m.Graph)
	if err != nil {
		return nil, err
	}
	sections := []section{{tag: TagMeta, payload: meta}, {tag: TagGraph, payload: graphSec}}
	if m.Schema != nil {
		schema, err := m.Schema.Encode()
		if err != nil {
			return nil, fmt.Errorf("artifact: encode schema: %w", err)
		}
		sections = append(sections, section{tag: TagSchema, payload: schema})
	}

	// The weights section comes last, padded so its payload starts on a
	// WeightAlign boundary of the file.
	size := fileHeaderLen + sectionHeaderLen*(len(sections)+1)
	for _, s := range sections {
		size += len(s.payload)
	}
	pad := padTo(size, WeightAlign)
	size += pad + weightLen
	if want >= 0 && size != want {
		return nil, fmt.Errorf("artifact: encodes to %d bytes, want %d", size, want)
	}

	out := make([]byte, 0, size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)+1))
	for _, s := range sections {
		out = appendSectionHeader(out, s.tag, crc32.ChecksumIEEE(s.payload), len(s.payload), 0)
		out = append(out, s.payload...)
	}
	hdr := len(out)
	out = appendSectionHeader(out, TagWeights, 0, weightLen, pad)
	out = append(out, zeroPad[:pad]...)
	start := len(out)
	out = appendWeights(out, weights)
	// The CRC field follows the 4-byte tag; it is known only now.
	binary.LittleEndian.PutUint32(out[hdr+4:], crc32.ChecksumIEEE(out[start:]))
	return out, nil
}

// Header sizes of the container: magic, version and section count; and
// per section tag, CRC, payload length and padding count.
const (
	fileHeaderLen    = 12
	sectionHeaderLen = 20
)

// appendSectionHeader appends one section header; pad zero bytes and the
// payload follow it.
func appendSectionHeader(dst []byte, tag string, crc uint32, length, pad int) []byte {
	dst = append(dst, tag...)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(length))
	return binary.LittleEndian.AppendUint32(dst, uint32(pad))
}

// Save writes the model to path as a .vedz file and records its
// content digest in m.Digest.
func Save(path string, m *Model) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("artifact: save %s: %w", path, err)
	}
	return nil
}

// Load reads a .vedz file, verifies its section CRCs and reconstructs
// the model. Weight tensors are zero-copy views into the file image
// where the host allows it (little-endian, aligned); treat them as
// read-only or Clone before mutating.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: load %s: %w", path, err)
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("artifact: load %s: %w", path, err)
	}
	return m, nil
}

// Decode reconstructs a model from encoded artifact bytes, verifying
// the magic, version and every section CRC. See Load for the weight
// aliasing contract.
func Decode(data []byte) (*Model, error) {
	secs, err := parseSections(data)
	if err != nil {
		return nil, err
	}
	return decodeSections(secs, DigestBytes(data))
}

// decodeSections reconstructs a model from an already-parsed (and
// CRC-verified) section table.
func decodeSections(secs map[string]section, digest string) (*Model, error) {
	m := &Model{Digest: digest}
	meta, ok := secs[TagMeta]
	if !ok {
		return nil, fmt.Errorf("artifact: missing %s section", TagMeta)
	}
	if err := json.Unmarshal(meta.payload, &m.Prov); err != nil {
		return nil, fmt.Errorf("artifact: decode provenance: %w", err)
	}
	graphSec, ok := secs[TagGraph]
	if !ok {
		return nil, fmt.Errorf("artifact: missing %s section", TagGraph)
	}
	weightSec, ok := secs[TagWeights]
	if !ok {
		return nil, fmt.Errorf("artifact: missing %s section", TagWeights)
	}
	g, err := decodeGraph(graphSec.payload, weightSec.payload)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: decoded graph invalid: %w", err)
	}
	m.Graph = g
	if schemaSec, ok := secs[TagSchema]; ok {
		schema, err := nn.DecodeQuantSchema(schemaSec.payload)
		if err != nil {
			return nil, fmt.Errorf("artifact: decode schema: %w", err)
		}
		m.Schema = schema
	}
	return m, nil
}

// Verify re-checks every integrity property of encoded artifact bytes:
// section CRCs, graph validity, schema coverage of the graph (when a
// schema section is present) and canonical form — re-encoding the
// decoded model must reproduce the input bytes exactly, so a verified
// file is guaranteed byte-stable across load/save cycles. The input is
// hashed once: Digest is its SHA-256, and the re-encoding is compared
// byte for byte, which a second hash could only repeat.
func Verify(data []byte) (*Model, error) {
	m, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if m.Schema != nil {
		if err := m.Schema.Covers(m.Graph); err != nil {
			return nil, fmt.Errorf("artifact: schema does not cover graph: %w", err)
		}
	}
	reenc, err := m.encode(len(data))
	if err != nil {
		return nil, fmt.Errorf("artifact: not in canonical form: re-encode: %w", err)
	}
	if !bytes.Equal(reenc, data) {
		return nil, fmt.Errorf("artifact: not in canonical form (re-encode differs)")
	}
	return m, nil
}

// section is one tagged payload of the container, with its stored
// (and verified) CRC.
type section struct {
	tag     string
	payload []byte
	crc     uint32
}

// parseSections walks the container, checking magic, version and every
// section CRC, and returns the payload slices by tag (views into data,
// not copies).
func parseSections(data []byte) (map[string]section, error) {
	if len(data) < fileHeaderLen {
		return nil, fmt.Errorf("artifact: truncated header (%d bytes)", len(data))
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("artifact: bad magic %q", data[:4])
	}
	r := &br{data: data, off: 4}
	version := r.u32()
	count := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if version != Version {
		return nil, fmt.Errorf("artifact: unsupported format version %d (this build reads %d)", version, Version)
	}
	if count > 16 {
		return nil, fmt.Errorf("artifact: implausible section count %d", count)
	}
	secs := make(map[string]section, count)
	for i := uint32(0); i < count; i++ {
		tag := r.bytes(4)
		crc := r.u32()
		length := r.u64()
		pad := r.u32()
		if r.err != nil {
			return nil, fmt.Errorf("artifact: truncated section header: %w", r.err)
		}
		if pad > WeightAlign {
			return nil, fmt.Errorf("artifact: implausible section padding %d", pad)
		}
		r.bytes(int(pad))
		if length > uint64(len(data)) {
			return nil, fmt.Errorf("artifact: section %s length %d exceeds file size %d", tag, length, len(data))
		}
		payload := r.bytes(int(length))
		if r.err != nil {
			return nil, fmt.Errorf("artifact: truncated section %s: %w", tag, r.err)
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("artifact: section %s CRC mismatch (file %08x, computed %08x): corrupted", tag, crc, got)
		}
		if _, dup := secs[string(tag)]; dup {
			return nil, fmt.Errorf("artifact: duplicate section %s", tag)
		}
		secs[string(tag)] = section{tag: string(tag), payload: payload, crc: crc}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("artifact: %d trailing bytes after last section", len(data)-r.off)
	}
	return secs, nil
}

// padTo returns the zero-byte count that advances off to the next
// multiple of align.
func padTo(off, align int) int {
	rem := off % align
	if rem == 0 {
		return 0
	}
	return align - rem
}

// sortedWeightKeys returns a node's weight keys in the canonical
// (sorted) encoding order.
func sortedWeightKeys(n *nn.Node) []string {
	keys := make([]string, 0, len(n.Weights))
	for k := range n.Weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
