package serve

import (
	"bytes"
	"runtime"
	"testing"

	"vedliot/internal/tensor"
)

// fuzzMaxFrame is the frame bound FuzzFrameDecode reads under: small, so
// the one allocation a bare length prefix can claim (the frame buffer,
// bounded by MaxFrame before the body is read) stays inside decodeSlack.
const fuzzMaxFrame = 4 << 10

// decodeSlack is what decoding may allocate on top of a multiple of the
// bytes it was given: the frame reader's buffers and an error's text.
const decodeSlack = 96 << 10

// frameBytes builds one frame around a payload, as the encoders do.
func frameBytes(typ byte, id uint64, payload func(b []byte) []byte) []byte {
	b := payload(beginFrame(typ, id, 64))
	return append([]byte(nil), finishFrame(b)...)
}

// FuzzFrameDecode feeds the frame reader and every body decoder behind
// it (hello, hello-ok, request, reply: what a server reads from a
// client and a client from a server) arbitrary bytes (ROADMAP 3a). They
// must never panic, never allocate more than a small multiple of the
// bytes read, and whatever a body decoder accepts must encode back to
// exactly the bytes it consumed. The committed corpus (testdata/fuzz)
// holds the hostile cases: dimensions whose product wraps, a truncated
// body, rank 255, zero dimensions, a duplicate name.
func FuzzFrameDecode(f *testing.F) {
	ins := map[string]*tensor.Tensor{
		"a": testInput(1),
		"z": tensor.MustFromSlice([]float32{1.5, -2.25, 3e-9}, 3),
	}
	tensors := func(b []byte) []byte {
		b, err := appendTensorMap(b, ins)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(frameBytes(TypeHello, 0, func(b []byte) []byte { return appendString(b, "sk-alpha") }))
	f.Add(frameBytes(TypeHelloOK, 0, func(b []byte) []byte { return appendString(b, DefaultTenant) }))
	f.Add(frameBytes(TypeRequest, 7, func(b []byte) []byte { return tensors(appendString(b, "model-x")) }))
	f.Add(frameBytes(TypeReply, 7, func(b []byte) []byte { return tensors(append(b, StatusOK)) }))
	f.Add(append(errorReply(8, StatusBadRequest, "malformed request"), errorReply(9, StatusOverloaded, "\x07\x00")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := newFrameReader(bytes.NewReader(data), fuzzMaxFrame)
		type decoded struct {
			consumed []byte
			reencode func(b []byte) ([]byte, error)
		}
		var accepted []decoded
		for {
			fm, err := fr.next()
			if err != nil {
				break
			}
			d := &fm.body
			var re func(b []byte) ([]byte, error)
			switch fm.typ {
			case TypeHello, TypeHelloOK:
				if s, err := d.str(); err == nil {
					re = func(b []byte) ([]byte, error) { return appendString(b, s), nil }
				}
			case TypeRequest:
				model, err := d.str()
				if err != nil {
					break
				}
				if m, err := d.tensorMap(); err == nil {
					re = func(b []byte) ([]byte, error) { return appendTensorMap(appendString(b, model), m) }
				}
			case TypeReply:
				if rep := decodeReply(d); rep.err == nil {
					re = func(b []byte) ([]byte, error) { return appendTensorMap(append(b, StatusOK), rep.outs) }
				}
			}
			if re != nil {
				accepted = append(accepted, decoded{append([]byte(nil), d.b[headerLen:d.off]...), re})
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+decodeSlack); got > limit {
			t.Errorf("decoding allocated %d bytes on %d bytes of input, want at most %d", got, len(data), limit)
		}
		for _, a := range accepted {
			got, err := a.reencode(nil)
			if err != nil {
				t.Fatalf("an accepted body does not encode: %v", err)
			}
			if !bytes.Equal(got, a.consumed) {
				t.Errorf("an accepted body of %d bytes encodes back to %d different bytes", len(a.consumed), len(got))
			}
		}
	})
}
