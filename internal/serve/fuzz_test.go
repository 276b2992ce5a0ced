package serve

import (
	"bytes"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/tensor"
)

// fuzzMaxFrame is the frame bound FuzzFrameDecode reads under: small, so
// the one allocation a bare length prefix can claim (the frame buffer,
// bounded by maxFrame before the body is read) stays inside decodeSlack.
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

// backedElems is the product of a shape's dimensions, computed without
// wrapping: ok is false for a negative dimension or a product past the
// int range.
func backedElems(s tensor.Shape) (n int, ok bool) {
	p := uint64(1)
	for _, d := range s {
		hi, lo := bits.Mul64(p, uint64(d))
		if d < 0 || hi != 0 || lo > math.MaxInt {
			return 0, false
		}
		p = lo
	}
	return int(p), true
}

// FuzzHTTPInfer feeds POST /v1/infer arbitrary bodies against the
// two-input pair model. The handler must never panic; it may answer 200
// only when every input the model declares passes inference.CheckInputs;
// and every tensor the body-to-tensor-map step (decodeInfer) builds backs
// exactly the overflow-checked product of its shape. The committed corpus (testdata/fuzz) holds the hostile cases: an
// undeclared input whose dimensions wrap to its four floats, negative
// dimensions, a scalar, null data, zero rows and bytes after the request.
func FuzzHTTPInfer(f *testing.F) {
	sched, dep := deployGraph(f, armFleet(f, 1), cluster.Config{QueueDepth: 64}, pairModel())
	saved := maxFrame
	f.Cleanup(func() { maxFrame = saved })
	maxFrame = fuzzMaxFrame
	srv, err := Listen("127.0.0.1:0", sched, Config{Keys: map[string]string{"sk-f": "web"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	f.Add([]byte(`{"inputs":{"a":{"shape":[1,4],"data":[0,0.125,0.25,0.375]},"b":{"shape":[1,4],"data":[1,1,1,1]}}}`))
	f.Add([]byte(`{"model":"pair","inputs":{"a":{"shape":[2,4],"data":[1,2,3,4,5,6,7,8]},"b":{"shape":[2,4],"data":[0,0,0,0,0,0,0,0]}}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		req.Header.Set("X-API-Key", "sk-f")
		h.ServeHTTP(rec, req)

		_, ins, err := decodeInfer(bytes.NewReader(body))
		for name, in := range ins {
			if n, ok := backedElems(in.Shape); !ok || n != len(in.F32) {
				t.Errorf("input %q: shape %v over %d floats", name, in.Shape, len(in.F32))
			}
		}
		if rec.Code != http.StatusOK {
			return
		}
		if err != nil {
			t.Fatalf("200 for a body the adapter refuses: %v", err)
		}
		if _, err := inference.CheckInputs(dep.InputNames(), dep.InputShapes(), ins); err != nil {
			t.Errorf("200 for inputs the model's signature refuses: %v", err)
		}
	})
}
