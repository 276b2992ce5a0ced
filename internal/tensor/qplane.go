package tensor

// ConvGeom is the geometry of one grouped 2-D convolution over NCHW
// planes, per sample: InC planes of InH x InW in, OutC planes of
// OutH x OutW out, KH x KW taps at stride (SH, SW) and padding (PH, PW),
// output channel oc reading the ICPerG input channels of group
// oc/OCPerG.
type ConvGeom struct {
	InC, InH, InW    int
	OutC, OutH, OutW int
	KH, KW           int
	SH, SW           int
	PH, PW           int
	ICPerG, OCPerG   int
}

// ConvPlanesInt8 is the one-pass kernel of the integer plane
// convolutions (depthwise and the other shallow reductions): one call
// computes a run of output planes, each output code written once. Plane
// p = b*OutC + oc holds, at every (oy, ox),
//
//	acc  = Bias[oc] + sum over (ic, ky, kx) in bounds of W[oc,ic,ky,kx] * (x[b,g+ic,iy,ix] - ZPIn)
//	code = ClampInt8(ZPOut + Req[oc].Apply(acc)), then Post[oc][code+128] when Post[oc] is non-nil
//
// with g = oc/OCPerG*ICPerG, iy = oy*SH-PH+ky and ix = ox*SW-PW+kx. A tap
// outside the input plane is the zero point, so it adds exactly 0. The
// sum is exact in int32 for every layer the engine binds.
//
// The portable body below is the definition. The vector bodies
// (qplane_amd64.go) read the int8 codes where they lie, give a tap
// window's out-of-plane bytes the zero point's code, so that the shift
// by the zero point makes them exactly 0, and accumulate every tap in
// int32; the AVX-512 body then requantizes, recodes and stores each
// plane's codes once, the AVX2 and SSE2 ones leave an int32 plane to
// RequantTileInt8.
type ConvPlanesInt8 struct {
	g           ConvGeom
	w           []int8 // [OutC][ICPerG][KH][KW]
	bias        []int32
	req         []Requant
	zpIn, zpOut int32
	post        []*[256]int8
	accel       *convPlanesLayout // the vector body's bind-time layout, nil where the portable body runs
}

// NewConvPlanesInt8 binds a convolution to the plane kernel. w is
// [OutC][ICPerG][KH][KW]; bias and req have one entry per output
// channel; post is nil or has one (possibly nil) table per channel.
func NewConvPlanesInt8(g ConvGeom, w []int8, bias []int32, req []Requant, zpIn, zpOut int32, post []*[256]int8) *ConvPlanesInt8 {
	taps := g.ICPerG * g.KH * g.KW
	k := &ConvPlanesInt8{g: g, w: w[:g.OutC*taps], bias: bias[:g.OutC], req: req[:g.OutC], zpIn: zpIn, zpOut: zpOut}
	if post != nil {
		k.post = post[:g.OutC]
	}
	k.accel = newConvPlanesLayout(k)
	return k
}

// Run computes output planes [lo, hi) of dst from the batched input
// planes x.
func (k *ConvPlanesInt8) Run(dst, x []int8, lo, hi int) {
	g := &k.g
	outHW, inSample := g.OutH*g.OutW, g.InC*g.InH*g.InW
	if lo >= hi || outHW == 0 {
		return
	}
	_, _ = dst[lo*outHW:hi*outHW], x[:((hi-1)/g.OutC+1)*inSample] // every plane and sample the range touches
	if k.accel != nil {
		convPlanesInt8Accel(k, dst, x, lo, hi)
		return
	}
	convPlanesInt8Generic(k, dst, x, lo, hi)
}

func convPlanesInt8Generic(k *ConvPlanesInt8, dst, x []int8, lo, hi int) {
	g := &k.g
	inHW, outHW, taps := g.InH*g.InW, g.OutH*g.OutW, g.KH*g.KW
	var accRow [256]int32 // one output row's accumulators, a piece at a time
	zp := k.zpIn
	for p := lo; p < hi; p++ {
		b, oc := p/g.OutC, p%g.OutC
		xg := x[(b*g.InC+oc/g.OCPerG*g.ICPerG)*inHW:][:g.ICPerG*inHW]
		w := k.w[oc*g.ICPerG*taps:][:g.ICPerG*taps]
		out := dst[p*outHW:][:outHW]
		var post *[256]int8
		if k.post != nil {
			post = k.post[oc]
		}
		for oy := 0; oy < g.OutH; oy++ {
			iy0 := oy*g.SH - g.PH
			kyLo, kyHi := max(0, -iy0), min(g.KH, g.InH-iy0)
			for ox0 := 0; ox0 < g.OutW; ox0 += len(accRow) {
				acc := accRow[:min(len(accRow), g.OutW-ox0)]
				for i := range acc {
					acc[i] = k.bias[oc]
				}
				for ic := 0; ic < g.ICPerG; ic++ {
					for ky := kyLo; ky < kyHi; ky++ {
						row := xg[ic*inHW+(iy0+ky)*g.InW:][:g.InW]
						for kx, wv := range w[(ic*g.KH+ky)*g.KW:][:g.KW] {
							// The outputs of the piece whose column
							// ox*SW-PW+kx lies inside the row.
							i0 := max(0, ceilDiv(max(g.PW-kx, 0), g.SW)-ox0)
							i1 := min(len(acc), ceilDiv(max(g.InW+g.PW-kx, 0), g.SW)-ox0)
							if i0 >= i1 {
								continue
							}
							a, ix := acc[i0:i1], (ox0+i0)*g.SW-g.PW+kx
							w32, zw := int32(wv), int32(wv)*zp
							if g.SW == 1 {
								for i, v := range row[ix : ix+len(a)] {
									a[i] += w32*int32(v) - zw
								}
								continue
							}
							for i := range a {
								a[i] += w32*int32(row[ix]) - zw
								ix += g.SW
							}
						}
					}
				}
				o := out[oy*g.OutW+ox0:][:len(acc)]
				for i, a := range acc {
					code := ClampInt8(k.zpOut + k.req[oc].Apply(a))
					if post != nil {
						code = post[int(code)+128]
					}
					o[i] = code
				}
			}
		}
	}
}
