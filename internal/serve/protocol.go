// Package serve is the fleet's network front door: a length-prefixed
// framed-TCP protocol (plus an HTTP/JSON adapter) over
// cluster.Scheduler, with per-tenant API keys, admission control that
// maps shed load to retry-after hints, and adaptive request batching at
// the socket boundary so the engines see full batches instead of
// singleton dispatches.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"vedliot/internal/tensor"
)

// Version is the wire-protocol version byte carried by every frame.
const Version = 1

// Frame types. Every frame is a uint32 little-endian length prefix
// followed by [version byte, type byte, uint64 LE id, payload].
const (
	// TypeHello opens a connection: payload is a u16-length-prefixed
	// API key (empty in open mode).
	TypeHello = byte(1)
	// TypeHelloOK acknowledges Hello: payload is the u16-length-prefixed
	// tenant name the key resolved to.
	TypeHelloOK = byte(2)
	// TypeRequest carries one inference request: a u16-length-prefixed
	// model name followed by an encoded tensor map.
	TypeRequest = byte(3)
	// TypeReply carries one response: a status byte, then a tensor map
	// (StatusOK), a u32 retry-after hint in milliseconds
	// (StatusOverloaded), or a u16-length-prefixed message (errors).
	TypeReply = byte(4)
)

// Reply status codes.
const (
	// StatusOK precedes an encoded tensor map of outputs.
	StatusOK = byte(0)
	// StatusOverloaded signals shed load; the payload is a u32 LE
	// retry-after hint in milliseconds.
	StatusOverloaded = byte(1)
	// StatusUnauthorized signals a rejected API key.
	StatusUnauthorized = byte(2)
	// StatusBadRequest signals an undecodable or malformed request.
	StatusBadRequest = byte(3)
	// StatusError signals an engine-side failure.
	StatusError = byte(4)
	// StatusShuttingDown signals the server is draining.
	StatusShuttingDown = byte(5)
)

// DefaultMaxFrame bounds a frame body; larger frames poison the
// connection and are refused before allocation.
const DefaultMaxFrame = 16 << 20

// headerLen is the fixed frame-body prefix: version, type, id.
const headerLen = 1 + 1 + 8

// dtFP32 is the only tensor dtype code in protocol version 1. The fleet
// quantizes internally; the wire stays FP32.
const dtFP32 = byte(0)

// bufPool recycles frame buffers so steady-state encoding does not
// allocate.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf leases a buffer of at least n bytes, length 0.
func getBuf(n int) []byte {
	b := *bufPool.Get().(*[]byte)
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// putBuf returns a leased buffer to the pool.
func putBuf(b []byte) {
	bufPool.Put(&b)
}

// beginFrame starts a frame body in a pooled buffer: a placeholder
// length prefix plus the fixed header. finishFrame patches the length.
func beginFrame(typ byte, id uint64, payloadHint int) []byte {
	b := getBuf(4 + headerLen + payloadHint)
	b = append(b, 0, 0, 0, 0, Version, typ)
	b = binary.LittleEndian.AppendUint64(b, id)
	return b
}

// finishFrame patches the length prefix once the payload is appended.
func finishFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b
}

// appendString appends a u16-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// tensorMapSize is the encoded size of a tensor map, the payload hint
// that lets beginFrame lease a buffer the map fits in.
func tensorMapSize(m map[string]*tensor.Tensor) int {
	n := 2
	for name, t := range m {
		if t != nil {
			n += 2 + len(name) + 2 + 4*len(t.Shape) + 4*len(t.F32)
		}
	}
	return n
}

// appendTensorMap encodes a named FP32 tensor map: u16 count, then per
// tensor (in ascending name order, the one encoding the decoder accepts)
// a u16-length-prefixed name, dtype byte, rank byte, u32 LE dims and the
// LE float payload.
func appendTensorMap(b []byte, m map[string]*tensor.Tensor) ([]byte, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(names)))
	for _, name := range names {
		t := m[name]
		if t == nil || t.DType != tensor.FP32 {
			return nil, fmt.Errorf("serve: tensor %q is not FP32", name)
		}
		if len(t.Shape) > 255 {
			return nil, fmt.Errorf("serve: tensor %q rank %d exceeds protocol limit", name, len(t.Shape))
		}
		b = appendString(b, name)
		b = append(b, dtFP32, byte(len(t.Shape)))
		for _, d := range t.Shape {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
		for _, v := range t.F32 {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b, nil
}

// decoder walks one frame body.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u8() (byte, error) {
	if d.off+1 > len(d.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	if d.off+int(n) > len(d.b) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// tensorMap decodes an encoded tensor map into freshly allocated FP32
// tensors (the frame buffer is recycled, so no aliasing). The bytes are
// untrusted: names must ascend strictly, which is the canonical order
// appendTensorMap writes and leaves a duplicate nowhere to hide, and
// every count and dimension is bounded by the bytes still unread before
// anything is sized by it, so a body never allocates more than a small
// multiple of itself.
func (d *decoder) tensorMap() (map[string]*tensor.Tensor, error) {
	count, err := d.u16()
	if err != nil {
		return nil, err
	}
	// A tensor takes at least four bytes: name length, dtype, rank.
	m := make(map[string]*tensor.Tensor, min(int(count), (len(d.b)-d.off)/4))
	prev := ""
	for i := 0; i < int(count); i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("serve: tensor %q after %q: names must ascend", name, prev)
		}
		prev = name
		dt, err := d.u8()
		if err != nil {
			return nil, err
		}
		if dt != dtFP32 {
			return nil, fmt.Errorf("serve: tensor %q: unsupported dtype %d", name, dt)
		}
		rank, err := d.u8()
		if err != nil {
			return nil, err
		}
		shape := make(tensor.Shape, rank)
		elems := 1
		for j := range shape {
			dim, err := d.u32()
			if err != nil {
				return nil, err
			}
			// room is the elements the rest of the body could back. A
			// dimension within it fits an int, and so does the product.
			room := (len(d.b) - d.off) / 4
			if uint64(dim) > uint64(room) || (dim != 0 && elems > room/int(dim)) {
				return nil, io.ErrUnexpectedEOF
			}
			shape[j] = int(dim)
			elems *= int(dim)
		}
		if 4*elems > len(d.b)-d.off {
			return nil, io.ErrUnexpectedEOF
		}
		t := &tensor.Tensor{Shape: shape, DType: tensor.FP32, F32: make([]float32, elems)}
		getFloats(t.F32, d.b[d.off:d.off+4*elems])
		d.off += 4 * elems
		m[name] = t
	}
	return m, nil
}

// getFloats decodes the LE float payload p into dst, four floats a
// step: the slices are locals and their lengths checked once a step, so
// no float reloads the decoder's fields or pays its own bounds check.
func getFloats(dst []float32, p []byte) {
	for len(dst) >= 4 && len(p) >= 16 {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(p[0:4]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(p[4:8]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(p[8:12]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(p[12:16]))
		dst, p = dst[4:], p[16:]
	}
	for j := range dst {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*j:]))
	}
}

// frame is one decoded frame header plus its body.
type frame struct {
	typ  byte
	id   uint64
	body decoder
}

// frameReader reads frames from a buffered stream into a single reused
// buffer: zero steady-state allocation on the read path.
type frameReader struct {
	r        *bufio.Reader
	buf      []byte
	maxFrame int
}

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10), maxFrame: maxFrame}
}

// next reads one frame. The returned frame's body aliases the reader's
// internal buffer and is valid until the following next call.
func (fr *frameReader) next() (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < headerLen || n > fr.maxFrame {
		return frame{}, fmt.Errorf("serve: frame body of %d bytes outside [%d, %d]", n, headerLen, fr.maxFrame)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return frame{}, err
	}
	if fr.buf[0] != Version {
		return frame{}, fmt.Errorf("serve: unsupported protocol version %d", fr.buf[0])
	}
	f := frame{typ: fr.buf[1], id: binary.LittleEndian.Uint64(fr.buf[2:10])}
	f.body = decoder{b: fr.buf, off: headerLen}
	return f, nil
}
