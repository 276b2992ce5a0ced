package tensor

import (
	"math/rand"
	"testing"
)

// convPlanesCase is one plane-kernel binding and a batch of inputs for it.
type convPlanesCase struct {
	g     ConvGeom
	batch int
	k     *ConvPlanesInt8
	x     []int8
}

// newConvPlanesCase draws weights, biases, requantizers, zero points over
// the whole int8 range and (when recode) one table per channel, some of
// them nil, for geometry g.
func newConvPlanesCase(rng *rand.Rand, g ConvGeom, batch int, recode bool) *convPlanesCase {
	taps := g.ICPerG * g.KH * g.KW
	w := make([]int8, g.OutC*taps)
	for i := range w {
		w[i] = int8(rng.Intn(256) - 128)
	}
	bias := make([]int32, g.OutC)
	req := make([]Requant, g.OutC)
	var post []*[256]int8
	if recode {
		post = make([]*[256]int8, g.OutC)
	}
	for oc := range bias {
		bias[oc] = int32(rng.Intn(1<<16) - 1<<15)
		req[oc] = NewRequant([]float64{1.7e-3, 3.3e-2, 0.25, 0.9999, 2.5e-4}[rng.Intn(5)])
		if recode && rng.Intn(4) != 0 {
			post[oc] = new([256]int8)
			for c := range post[oc] {
				post[oc][c] = int8(rng.Intn(256) - 128)
			}
		}
	}
	zps := []int32{-128, 127, 0, int32(rng.Intn(256) - 128)}
	zpIn, zpOut := zps[rng.Intn(len(zps))], zps[rng.Intn(len(zps))]
	x := make([]int8, batch*g.InC*g.InH*g.InW)
	for i := range x {
		x[i] = int8(rng.Intn(256) - 128)
	}
	return &convPlanesCase{g: g, batch: batch, k: NewConvPlanesInt8(g, w, bias, req, zpIn, zpOut, post), x: x}
}

// refConvPlanesInt8 is ConvPlanesInt8's definition tap by tap, with no
// clipping hoisted: an out-of-plane tap is skipped.
func refConvPlanesInt8(k *ConvPlanesInt8, dst, x []int8, lo, hi int) {
	g := &k.g
	inHW, outHW, taps := g.InH*g.InW, g.OutH*g.OutW, g.KH*g.KW
	for p := lo; p < hi; p++ {
		b, oc := p/g.OutC, p%g.OutC
		for o := 0; o < outHW; o++ {
			oy, ox := o/g.OutW, o%g.OutW
			acc := k.bias[oc]
			for ic := 0; ic < g.ICPerG; ic++ {
				for t := 0; t < taps; t++ {
					iy, ix := oy*g.SH-g.PH+t/g.KW, ox*g.SW-g.PW+t%g.KW
					if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
						continue
					}
					v := x[(b*g.InC+oc/g.OCPerG*g.ICPerG+ic)*inHW+iy*g.InW+ix]
					acc += int32(k.w[(oc*g.ICPerG+ic)*taps+t]) * (int32(v) - k.zpIn)
				}
			}
			code := ClampInt8(k.zpOut + k.req[oc].Apply(acc))
			if k.post != nil && k.post[oc] != nil {
				code = k.post[oc][int(code)+128]
			}
			dst[p*outHW+o] = code
		}
	}
}

// check runs the dispatched kernel over the planes in two chunks split at
// cut (so a chunk can start mid-sample) and holds it to the portable body
// and, when ref is set, the portable body to the tap-by-tap definition.
// A guard byte past the planes must survive.
func (c *convPlanesCase) check(t *testing.T, cut int, ref bool) {
	t.Helper()
	g := &c.g
	planes, outHW := c.batch*g.OutC, g.OutH*g.OutW
	got := make([]int8, planes*outHW+1)
	got[len(got)-1] = 55
	cut = min(cut, planes)
	c.k.Run(got, c.x, 0, cut)
	c.k.Run(got, c.x, cut, planes)
	want := make([]int8, planes*outHW)
	convPlanesInt8Generic(c.k, want, c.x, 0, planes)
	if got[len(got)-1] != 55 {
		t.Fatalf("%+v batch %d: wrote past the last plane", *g, c.batch)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%+v batch %d zp %d/%d: plane %d code %d = %d, portable %d", *g, c.batch, c.k.zpIn, c.k.zpOut, i/outHW, i%outHW, got[i], want[i])
		}
	}
	if !ref {
		return
	}
	refConvPlanesInt8(c.k, got, c.x, 0, planes)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%+v batch %d: portable plane %d code %d = %d, definition %d", *g, c.batch, i/outHW, i%outHW, want[i], got[i])
		}
	}
}

// convOut is the output extent of a conv along one axis.
func convOut(in, k, s, p int) int { return (in+2*p-k)/s + 1 }

// TestConvPlanesInt8 drives the plane kernel over depthwise and grouped
// geometries at strides 1 to 3 (the last runs the portable body on every
// tier), kernels 1x1 to 5x5 with and without padding, planes from 1x1 to
// wider than two vector blocks, flat and row-by-row block layouts, one
// to three input channels per group, batches that make a chunk wrap
// into the next sample, recode tables with nil channels, and zero points
// at both ends of the int8 range.
func TestConvPlanesInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n, vec := 0, 0
	for _, kk := range []int{1, 2, 3, 5} {
		for _, s := range []int{1, 2, 3} {
			for _, p := range []int{0, 1, 2} {
				if p >= kk && p > 0 {
					continue
				}
				for _, hw := range [][2]int{{1, 1}, {4, 4}, {8, 8}, {7, 19}, {16, 16}, {5, 37}, {32, 32}} {
					oh, ow := convOut(hw[0], kk, s, p), convOut(hw[1], kk, s, p)
					if oh < 1 || ow < 1 {
						continue
					}
					icPerG := 1 + rng.Intn(3)*rng.Intn(2)
					groups := 1 + rng.Intn(3)
					ocPerG := 1 + rng.Intn(2)
					g := ConvGeom{InC: groups * icPerG, InH: hw[0], InW: hw[1], OutC: groups * ocPerG, OutH: oh, OutW: ow,
						KH: kk, KW: kk, SH: s, SW: s, PH: p, PW: p, ICPerG: icPerG, OCPerG: ocPerG}
					batch := 1 + rng.Intn(3)
					c := newConvPlanesCase(rng, g, batch, rng.Intn(3) != 0)
					c.check(t, rng.Intn(batch*g.OutC+1), true)
					n++
					if c.k.accel != nil {
						vec++
					}
				}
			}
		}
	}
	// Rectangular kernels, unequal strides and pads.
	for _, g := range []ConvGeom{
		{InC: 3, InH: 9, InW: 20, OutC: 3, OutH: 9, OutW: 20, KH: 1, KW: 3, SH: 1, SW: 1, PH: 0, PW: 1, ICPerG: 1, OCPerG: 1},
		{InC: 2, InH: 11, InW: 12, OutC: 2, OutH: 6, OutW: 12, KH: 3, KW: 1, SH: 2, SW: 1, PH: 1, PW: 0, ICPerG: 1, OCPerG: 1},
		{InC: 4, InH: 10, InW: 33, OutC: 4, OutH: 10, OutW: 17, KH: 3, KW: 4, SH: 1, SW: 2, PH: 1, PW: 1, ICPerG: 1, OCPerG: 1},
		{InC: 1, InH: 6, InW: 40, OutC: 2, OutH: 4, OutW: 18, KH: 3, KW: 5, SH: 1, SW: 2, PH: 0, PW: 0, ICPerG: 1, OCPerG: 2},
	} {
		c := newConvPlanesCase(rng, g, 2, true)
		c.check(t, 1, true)
		n++
		if c.k.accel != nil {
			vec++
		}
	}
	t.Logf("%d geometries, %d on the vector body", n, vec)
}

// FuzzConvPlanesInt8 holds the dispatched plane kernel to its portable
// body on fuzzed geometries, weights, zero points, requantizers and
// recode tables.
func FuzzConvPlanesInt8(f *testing.F) {
	f.Add([]byte{3, 1, 1, 16, 16, 2, 1, 7, 200, 3, 9, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0), uint8(127), true)
	f.Add([]byte{5, 2, 2, 16, 16, 3, 2, 1, 1, 0, 0, 0}, uint8(128), uint8(255), false)
	f.Add([]byte{3, 2, 1, 4, 4, 5, 1, 3, 2, 1, 255, 128}, uint8(200), uint8(0), true)
	f.Add([]byte{1, 1, 0, 8, 8, 1, 3, 9, 9, 9}, uint8(17), uint8(240), true)
	f.Fuzz(func(t *testing.T, raw []byte, zpIn8, zpOut8 uint8, recode bool) {
		if len(raw) < 9 {
			return
		}
		kk, s := 1+int(raw[0])%5, 1+int(raw[1])%3
		p := int(raw[2]) % kk
		ih, iw := 1+int(raw[3])%40, 1+int(raw[4])%40
		groups, icPerG, ocPerG := 1+int(raw[5])%4, 1+int(raw[6])%3, 1+int(raw[7])%2
		batch := 1 + int(raw[8])%3
		oh, ow := convOut(ih, kk, s, p), convOut(iw, kk, s, p)
		if oh < 1 || ow < 1 {
			return
		}
		g := ConvGeom{InC: groups * icPerG, InH: ih, InW: iw, OutC: groups * ocPerG, OutH: oh, OutW: ow,
			KH: kk, KW: kk, SH: s, SW: s, PH: p, PW: p, ICPerG: icPerG, OCPerG: ocPerG}
		body := raw[9:]
		if len(body) == 0 {
			body = raw
		}
		at := func(i int) int8 { return int8(body[i%len(body)]) ^ int8(i*37) }
		w := make([]int8, g.OutC*icPerG*kk*kk)
		for i := range w {
			w[i] = at(i)
		}
		bias := make([]int32, g.OutC)
		req := make([]Requant, g.OutC)
		var post []*[256]int8
		if recode {
			post = make([]*[256]int8, g.OutC)
		}
		for oc := range bias {
			bias[oc] = int32(at(oc)) * 97
			req[oc] = NewRequant(float64(1+int(uint8(at(oc+1)))) / 4096)
			if recode && oc%3 != 1 {
				post[oc] = new([256]int8)
				for c := range post[oc] {
					post[oc][c] = at(c + oc)
				}
			}
		}
		x := make([]int8, batch*g.InC*ih*iw)
		for i := range x {
			x[i] = at(i + 11)
		}
		c := &convPlanesCase{g: g, batch: batch, x: x,
			k: NewConvPlanesInt8(g, w, bias, req, int32(int8(zpIn8)), int32(int8(zpOut8)), post)}
		c.check(t, int(raw[8])%(batch*g.OutC+1), false)
	})
}
