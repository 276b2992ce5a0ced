package artifact

import (
	"encoding/binary"
	"math"
	"unsafe"

	"vedliot/internal/tensor"
)

// Zero-copy weight loading: the weights section stores raw
// little-endian payloads at WeightAlign boundaries, so on a
// little-endian host an FP32/FP16 weight is just a reinterpretation of
// the file image — no per-element parse, no second allocation. Big- or
// misaligned hosts fall back to an element-wise decode with identical
// results. Views alias the loaded file buffer and must be treated as
// read-only (Clone before mutating).

// hostLittleEndian reports the byte order of this process, detected
// once at init.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f32View reinterprets a raw little-endian payload as []float32,
// zero-copy when the host byte order and buffer alignment allow it.
func f32View(b []byte) []float32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// u16View reinterprets a raw little-endian payload as []uint16 (the
// FP16 storage type), zero-copy when possible.
func u16View(b []byte) []uint16 {
	n := len(b) / 2
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%2 == 0 {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[i*2:])
	}
	return out
}

// i8View reinterprets a raw payload as []int8 — always zero-copy
// (single-byte elements have no endianness).
func i8View(b []byte) []int8 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b))
}

// payloadView is the view the other way: a weight's backing slice as
// the bytes it occupies in memory, which on a little-endian host are its
// payload in the file. Its length is the payload's on any host.
func payloadView(t *tensor.Tensor) []byte {
	switch t.DType {
	case tensor.FP32:
		return sliceBytes(t.F32)
	case tensor.FP16:
		return sliceBytes(t.F16)
	case tensor.INT8:
		return sliceBytes(t.I8)
	}
	return nil
}

func sliceBytes[T float32 | uint16 | int8](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}
