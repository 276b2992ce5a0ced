package artifact

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// The graph section stores structure only; every weight tensor is a
// descriptor (dtype, shape, quantization parameters) plus an
// (offset, length) reference into the weights section, whose payloads
// sit at WeightAlign boundaries. Loading therefore never re-parses
// weight bytes: the descriptors are decoded and the payloads are
// wrapped — zero-copy where the host allows it (see view.go).

// encodeGraph serializes g's structure and lays its weight payloads out
// in the aligned weights section: it returns the graph section, the
// tensors in payload order and the weights section's length, and
// appendWeights writes that section. Nothing here touches a weight's
// bytes, so the container's one output buffer can be sized before the
// payloads move.
func encodeGraph(g *nn.Graph) (graphSec []byte, weights []*tensor.Tensor, weightLen int, err error) {
	w := &bw{buf: make([]byte, 0, 64+192*len(g.Nodes))}

	w.str(g.Name)
	w.u32(uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		w.str(n.Name)
		w.str(n.Op.String())
		w.u32(uint32(len(n.Inputs)))
		for _, in := range n.Inputs {
			w.str(in)
		}
		a := n.Attrs
		for _, v := range [...]int{
			a.KernelH, a.KernelW, a.StrideH, a.StrideW, a.PadH, a.PadW,
			a.Groups, a.OutC, a.Scale,
		} {
			w.i32(int32(v))
		}
		w.f32(a.Alpha)
		w.f32(a.Eps)
		if a.Bias {
			w.u32(1)
		} else {
			w.u32(0)
		}
		w.u32(uint32(len(a.Shape)))
		for _, d := range a.Shape {
			w.i32(int32(d))
		}
		keys := sortedWeightKeys(n)
		w.u32(uint32(len(keys)))
		for _, k := range keys {
			t := n.Weights[k]
			// A hand-built tensor's backing slice may disagree with its
			// shape; the descriptors below must not.
			if got := len(payloadView(t)); got != t.SizeBytes() {
				return nil, nil, 0, fmt.Errorf("artifact: encode graph: node %q weight %q holds %d payload bytes, shape %v wants %d",
					n.Name, k, got, t.Shape, t.SizeBytes())
			}
			w.str(k)
			w.u32(uint32(t.DType))
			w.u32(uint32(len(t.Shape)))
			for _, d := range t.Shape {
				w.i32(int32(d))
			}
			w.f32(t.Quant.Scale)
			w.i32(t.Quant.Zero)
			weightLen += padTo(weightLen, WeightAlign)
			w.u64(uint64(weightLen))
			w.u64(uint64(t.SizeBytes()))
			weightLen += t.SizeBytes()
			weights = append(weights, t)
		}
	}
	w.u32(uint32(len(g.Outputs)))
	for _, o := range g.Outputs {
		w.str(o)
	}
	if w.err != nil {
		return nil, nil, 0, fmt.Errorf("artifact: encode graph: %w", w.err)
	}
	return w.buf, weights, weightLen, nil
}

// zeroPad is the source of alignment padding.
var zeroPad [WeightAlign]byte

// appendWeights appends the weights section encodeGraph laid out: every
// payload at its WeightAlign boundary, counted from the section's start.
func appendWeights(dst []byte, weights []*tensor.Tensor) []byte {
	start := len(dst)
	for _, t := range weights {
		dst = append(dst, zeroPad[:padTo(len(dst)-start, WeightAlign)]...)
		dst = appendWeightPayload(dst, t)
	}
	return dst
}

// appendWeightPayload appends a tensor's raw little-endian payload: on
// a little-endian host one copy of the backing slice's bytes (the
// mirror of view.go's zero-copy read), elsewhere element by element.
func appendWeightPayload(dst []byte, t *tensor.Tensor) []byte {
	if !hostLittleEndian {
		return appendWeightPayloadPortable(dst, t)
	}
	return append(dst, payloadView(t)...)
}

// appendWeightPayloadPortable is the byte-order-independent writer, the
// definition the bulk copy is held to.
func appendWeightPayloadPortable(dst []byte, t *tensor.Tensor) []byte {
	switch t.DType {
	case tensor.FP32:
		for _, v := range t.F32 {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	case tensor.FP16:
		for _, v := range t.F16 {
			dst = binary.LittleEndian.AppendUint16(dst, v)
		}
	case tensor.INT8:
		for _, v := range t.I8 {
			dst = append(dst, byte(v))
		}
	}
	return dst
}

// decodeGraph reconstructs a graph from the structure section, wiring
// weight tensors to views of the weights blob.
func decodeGraph(graphSec, blob []byte) (*nn.Graph, error) {
	r := &br{data: graphSec}
	g := nn.NewGraph(r.str())
	numNodes := r.u32()
	if numNodes > 1<<20 {
		return nil, fmt.Errorf("artifact: implausible node count %d", numNodes)
	}
	for i := uint32(0); i < numNodes && r.err == nil; i++ {
		n, err := decodeNode(r, blob)
		if err != nil {
			return nil, err
		}
		if err := g.Add(n); err != nil {
			return nil, fmt.Errorf("artifact: decode graph: %w", err)
		}
	}
	numOut := r.u32()
	if numOut > 1<<16 {
		return nil, fmt.Errorf("artifact: implausible output count %d", numOut)
	}
	for i := uint32(0); i < numOut && r.err == nil; i++ {
		g.Outputs = append(g.Outputs, r.str())
	}
	if r.err != nil {
		return nil, fmt.Errorf("artifact: decode graph: %w", r.err)
	}
	if r.off != len(graphSec) {
		return nil, fmt.Errorf("artifact: %d trailing bytes in graph section", len(graphSec)-r.off)
	}
	return g, nil
}

func decodeNode(r *br, blob []byte) (*nn.Node, error) {
	n := &nn.Node{Name: r.str()}
	op, err := nn.ParseOpType(r.str())
	if r.err != nil {
		return nil, r.err
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	n.Op = op
	numIn := r.u32()
	if numIn > 1<<16 {
		return nil, fmt.Errorf("artifact: implausible input count %d", numIn)
	}
	for i := uint32(0); i < numIn && r.err == nil; i++ {
		n.Inputs = append(n.Inputs, r.str())
	}
	var ints [9]int32
	for i := range ints {
		ints[i] = r.i32()
	}
	n.Attrs.KernelH, n.Attrs.KernelW = int(ints[0]), int(ints[1])
	n.Attrs.StrideH, n.Attrs.StrideW = int(ints[2]), int(ints[3])
	n.Attrs.PadH, n.Attrs.PadW = int(ints[4]), int(ints[5])
	n.Attrs.Groups, n.Attrs.OutC, n.Attrs.Scale = int(ints[6]), int(ints[7]), int(ints[8])
	n.Attrs.Alpha = r.f32()
	n.Attrs.Eps = r.f32()
	n.Attrs.Bias = r.u32() == 1
	shapeLen := r.u32()
	if shapeLen > 16 {
		return nil, fmt.Errorf("artifact: implausible shape rank %d", shapeLen)
	}
	for i := uint32(0); i < shapeLen; i++ {
		n.Attrs.Shape = append(n.Attrs.Shape, int(r.i32()))
	}
	numW := r.u32()
	if numW > 16 {
		return nil, fmt.Errorf("artifact: implausible weight count %d", numW)
	}
	for i := uint32(0); i < numW && r.err == nil; i++ {
		key := r.str()
		t, err := decodeWeight(r, blob)
		if err != nil {
			return nil, err
		}
		n.SetWeight(key, t)
	}
	return n, r.err
}

// decodeWeight reads one weight descriptor and binds its tensor to the
// referenced blob range.
func decodeWeight(r *br, blob []byte) (*tensor.Tensor, error) {
	dt := tensor.DType(r.u32())
	if dt != tensor.FP32 && dt != tensor.FP16 && dt != tensor.INT8 {
		return nil, fmt.Errorf("artifact: bad weight dtype %d", int(dt))
	}
	rank := r.u32()
	if rank > 8 {
		return nil, fmt.Errorf("artifact: implausible weight rank %d", rank)
	}
	shape := make(tensor.Shape, rank)
	elems := uint64(1)
	for i := range shape {
		shape[i] = int(r.i32())
		if shape[i] <= 0 || shape[i] > 1<<28 {
			return nil, fmt.Errorf("artifact: implausible weight dim %d", shape[i])
		}
		// Bound the running product so a crafted shape cannot overflow
		// the size check below (dims are individually plausible but
		// rank 8 products can wrap uint64).
		elems *= uint64(shape[i])
		if elems > 1<<36 {
			return nil, fmt.Errorf("artifact: implausible weight element count (shape %v)", shape)
		}
	}
	var q tensor.QuantParams
	q.Scale = r.f32()
	q.Zero = r.i32()
	off := r.u64()
	length := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	want := elems * uint64(dt.Size())
	if length != want {
		return nil, fmt.Errorf("artifact: weight payload %d bytes, shape %v wants %d", length, shape, want)
	}
	if off%WeightAlign != 0 {
		return nil, fmt.Errorf("artifact: weight offset %d not %d-aligned", off, WeightAlign)
	}
	// Subtract rather than add: off+length could wrap uint64 on a
	// crafted offset and slip past an additive bounds check.
	if off > uint64(len(blob)) || length > uint64(len(blob))-off {
		return nil, fmt.Errorf("artifact: weight range [%d:+%d) exceeds weights section (%d bytes)", off, length, len(blob))
	}
	payload := blob[off : off+length]
	t := &tensor.Tensor{Shape: shape, DType: dt, Quant: q}
	switch dt {
	case tensor.FP32:
		t.F32 = f32View(payload)
	case tensor.FP16:
		t.F16 = u16View(payload)
	case tensor.INT8:
		t.I8 = i8View(payload)
	}
	return t, nil
}

// bw appends little-endian primitives to a byte slice, remembering the
// first error.
type bw struct {
	buf []byte
	err error
}

func (w *bw) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *bw) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *bw) i32(v int32)   { w.u32(uint32(v)) }
func (w *bw) f32(v float32) { w.u32(math.Float32bits(v)) }

func (w *bw) str(s string) {
	if len(s) > 1<<20 {
		w.err = fmt.Errorf("string too long (%d bytes)", len(s))
		return
	}
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// br reads little-endian primitives from a byte slice, remembering the
// first error.
type br struct {
	data []byte
	off  int
	err  error
}

func (r *br) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *br) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *br) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *br) i32() int32   { return int32(r.u32()) }
func (r *br) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *br) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<20 {
		r.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	return string(r.bytes(int(n)))
}
