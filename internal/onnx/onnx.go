// Package onnx provides VNNX, the toolchain's model interchange format.
//
// The paper's toolchain (§III) uses ONNX as "the industry-standard open
// format to represent machine learning models" into which every tool
// converts: "all intermediate conversions and optimizations are
// performed on ONNX models". ONNX itself is protobuf-based; VNNX is a
// self-contained binary encoding of the same graph information (ops,
// attributes, initializers/weights, inputs/outputs) with an integrity
// checksum, filling the identical interchange role between the stages
// of this reproduction.
package onnx

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Format constants.
const (
	Magic   = "VNNX"
	Version = 1
)

// Encode serializes a graph.
func Encode(w io.Writer, g *nn.Graph) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("onnx: refusing to encode invalid graph: %w", err)
	}
	var body bytes.Buffer
	bw := &writer{w: &body}

	bw.str(g.Name)
	bw.u32(uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		encodeNode(bw, n)
	}
	bw.u32(uint32(len(g.Outputs)))
	for _, o := range g.Outputs {
		bw.str(o)
	}
	if bw.err != nil {
		return bw.err
	}

	sum := sha256.Sum256(body.Bytes())
	out := bufio.NewWriter(w)
	if _, err := out.WriteString(Magic); err != nil {
		return err
	}
	hdr := &writer{w: out}
	hdr.u32(Version)
	hdr.u32(uint32(body.Len()))
	if hdr.err != nil {
		return hdr.err
	}
	if _, err := out.Write(sum[:]); err != nil {
		return err
	}
	if _, err := out.Write(body.Bytes()); err != nil {
		return err
	}
	return out.Flush()
}

func encodeNode(bw *writer, n *nn.Node) {
	bw.str(n.Name)
	bw.str(n.Op.String())
	bw.u32(uint32(len(n.Inputs)))
	for _, in := range n.Inputs {
		bw.str(in)
	}
	a := n.Attrs
	for _, v := range []int{
		a.KernelH, a.KernelW, a.StrideH, a.StrideW, a.PadH, a.PadW,
		a.Groups, a.OutC, a.Scale,
	} {
		bw.i32(int32(v))
	}
	bw.f32(a.Alpha)
	bw.f32(a.Eps)
	if a.Bias {
		bw.u32(1)
	} else {
		bw.u32(0)
	}
	bw.u32(uint32(len(a.Shape)))
	for _, d := range a.Shape {
		bw.i32(int32(d))
	}
	keys := n.WeightKeys()
	bw.u32(uint32(len(keys)))
	for _, k := range keys {
		bw.str(k)
		encodeTensor(bw, n.Weights[k])
	}
}

func encodeTensor(bw *writer, t *tensor.Tensor) {
	bw.u32(uint32(t.DType))
	bw.u32(uint32(len(t.Shape)))
	for _, d := range t.Shape {
		bw.i32(int32(d))
	}
	bw.f32(t.Quant.Scale)
	bw.i32(t.Quant.Zero)
	switch t.DType {
	case tensor.FP32:
		bw.data(t.F32)
	case tensor.FP16:
		bw.data(t.F16)
	case tensor.INT8:
		bw.data(t.I8)
	}
}

// Decode reads a VNNX stream and reconstructs the graph, verifying the
// checksum. What it allocates follows the bytes actually present: a
// header or tensor shape that claims more than the stream holds is
// refused before anything of that size is made.
func Decode(r io.Reader) (*nn.Graph, error) {
	var hdr [44]byte // magic, version, body length, SHA-256 of the body
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("onnx: reading magic: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("onnx: bad magic %q", hdr[:4])
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, fmt.Errorf("onnx: reading header: %w", err)
	}
	if version := binary.LittleEndian.Uint32(hdr[4:]); version != Version {
		return nil, fmt.Errorf("onnx: unsupported version %d", version)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[8:])
	body, err := io.ReadAll(io.LimitReader(r, int64(bodyLen)))
	if err == nil && int64(len(body)) < int64(bodyLen) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("onnx: reading body: %w", err)
	}
	if sha256.Sum256(body) != [32]byte(hdr[12:]) {
		return nil, fmt.Errorf("onnx: checksum mismatch (corrupted model)")
	}

	br := &reader{r: bytes.NewReader(body)}
	name := br.str()
	g := nn.NewGraph(name)
	numNodes := br.u32()
	for i := uint32(0); i < numNodes && br.err == nil; i++ {
		n, err := decodeNode(br)
		if err != nil {
			return nil, err
		}
		if err := g.Add(n); err != nil {
			return nil, err
		}
	}
	numOut := br.u32()
	for i := uint32(0); i < numOut && br.err == nil; i++ {
		g.Outputs = append(g.Outputs, br.str())
	}
	if br.err != nil {
		return nil, fmt.Errorf("onnx: decoding body: %w", br.err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("onnx: decoded graph invalid: %w", err)
	}
	return g, nil
}

func decodeNode(br *reader) (*nn.Node, error) {
	n := &nn.Node{Name: br.str()}
	opName := br.str()
	op, err := nn.ParseOpType(opName)
	if err != nil {
		return nil, err
	}
	n.Op = op
	numIn := br.u32()
	for i := uint32(0); i < numIn && br.err == nil; i++ {
		n.Inputs = append(n.Inputs, br.str())
	}
	ints := make([]int32, 9)
	for i := range ints {
		ints[i] = br.i32()
	}
	n.Attrs.KernelH, n.Attrs.KernelW = int(ints[0]), int(ints[1])
	n.Attrs.StrideH, n.Attrs.StrideW = int(ints[2]), int(ints[3])
	n.Attrs.PadH, n.Attrs.PadW = int(ints[4]), int(ints[5])
	n.Attrs.Groups, n.Attrs.OutC, n.Attrs.Scale = int(ints[6]), int(ints[7]), int(ints[8])
	n.Attrs.Alpha = br.f32()
	n.Attrs.Eps = br.f32()
	n.Attrs.Bias = br.u32() == 1
	shapeLen := br.u32()
	if shapeLen > 16 {
		return nil, fmt.Errorf("onnx: implausible shape rank %d", shapeLen)
	}
	for i := uint32(0); i < shapeLen; i++ {
		n.Attrs.Shape = append(n.Attrs.Shape, int(br.i32()))
	}
	numW := br.u32()
	if numW > 16 {
		return nil, fmt.Errorf("onnx: implausible weight count %d", numW)
	}
	for i := uint32(0); i < numW && br.err == nil; i++ {
		key := br.str()
		t, err := decodeTensor(br)
		if err != nil {
			return nil, err
		}
		n.SetWeight(key, t)
	}
	return n, br.err
}

func decodeTensor(br *reader) (*tensor.Tensor, error) {
	dt := tensor.DType(br.u32())
	if dt != tensor.FP32 && dt != tensor.FP16 && dt != tensor.INT8 {
		return nil, fmt.Errorf("onnx: bad dtype %d", int(dt))
	}
	rank := br.u32()
	if rank > 8 {
		return nil, fmt.Errorf("onnx: implausible tensor rank %d", rank)
	}
	shape := make([]int, rank)
	// Every element is stored in the body, so the element count is
	// bounded by the bytes still unread; checking each dim against that
	// bound also keeps the product from overflowing.
	elems, most := 1, br.r.Len()/dt.Size()
	for i := range shape {
		shape[i] = int(br.i32())
		if shape[i] <= 0 || shape[i] > 1<<28 {
			return nil, fmt.Errorf("onnx: implausible dim %d", shape[i])
		}
		if elems > most/shape[i] {
			return nil, fmt.Errorf("onnx: tensor shape %v holds more elements than the %d bytes left", shape[:i+1], br.r.Len())
		}
		elems *= shape[i]
	}
	t := tensor.New(dt, shape...)
	t.Quant.Scale = br.f32()
	t.Quant.Zero = br.i32()
	switch dt {
	case tensor.FP32:
		br.data(t.F32)
	case tensor.FP16:
		br.data(t.F16)
	case tensor.INT8:
		br.data(t.I8)
	}
	return t, br.err
}

// writer accumulates little-endian primitives, remembering the first
// error.
type writer struct {
	w   io.Writer
	err error
}

// data writes a fixed-size value or a slice of them.
func (w *writer) data(v any) {
	if w.err == nil {
		w.err = binary.Write(w.w, binary.LittleEndian, v)
	}
}
func (w *writer) u32(v uint32)  { w.data(v) }
func (w *writer) i32(v int32)   { w.u32(uint32(v)) }
func (w *writer) f32(v float32) { w.u32(math.Float32bits(v)) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}

// reader mirrors writer over a checksummed body.
type reader struct {
	r   *bytes.Reader
	err error
}

// data reads a fixed-size value or fills a slice of them.
func (r *reader) data(v any) {
	if r.err == nil {
		r.err = binary.Read(r.r, binary.LittleEndian, v)
	}
}
func (r *reader) u32() (v uint32) { r.data(&v); return v }
func (r *reader) i32() int32      { return int32(r.u32()) }
func (r *reader) f32() float32    { return math.Float32frombits(r.u32()) }
func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<20 || int(n) > r.r.Len() {
		r.err = fmt.Errorf("onnx: implausible string length %d", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return ""
	}
	return string(b)
}
