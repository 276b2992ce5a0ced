//go:build amd64 && !purego

package tensor

import "vedliot/internal/tensor/cpu"

// convPlanesLayout is the vector bodies' bind-time view of a
// ConvPlanesInt8 (qplane_*_amd64.s read its fields at the offsets noted;
// TestConvPlanesLayoutOffsets holds them). A plane runs as blocks
// of up to 32 (stride 1) or 16 (stride 2) consecutive output codes. A
// tap entry is a column pair (kx, kx+1) of one kernel row, the pair past
// the kernel's edge weighted 0: one VPMADDWD adds both taps of a lane
// from two adjacent input codes, read from 32-byte windows. At stride 2
// a lane's two codes are adjacent in the input row, so one window holds
// sixteen lanes, and on planes of eight or fewer columns it is filled
// from several output rows (row segments, one masked load each). At
// stride 1 a window holds the pairs of every other output: two windows a
// byte apart hold the even and the odd outputs. Per block and entry a
// record gives the entry's offset and, per window (stride 1) or row
// segment (stride 2), a mask of the bytes that lie inside the input
// plane: only those are read, and the rest read the zero point's code,
// which the channel's seed cancels.
//
// The AVX2 and SSE2 bodies have no byte masks: they load whole windows
// and blend the zero point's code into the bytes outside the plane
// through bmasks (the record masks as byte vectors), so every window
// must lie inside the input buffer. reachLo and reachHi bound the
// windows of a plane against its channel group's first input code; a
// plane whose windows would leave the buffer runs on a copy of its group
// with room around it. Those bodies compute the accumulators, and the
// tile epilogue requantizes them.
type convPlanesLayout struct {
	blocks   *convPlanesBlock // 0: [nblk]
	nblk     int              // 8
	recs     *uint32          // 16: [nblk][ntaps][1+segs] offset from the block's input base, then masks
	segs     int              // 24: masks a record: 2 at stride 1, the row segments at stride 2
	ntaps    int              // 32: tap entries of one output plane
	w        *int32           // 40: [OutC][ntaps] weight pairs (w[kx], w[kx+1])
	seed     *int32           // 48: [OutC] Bias - ZPIn*(the channel's weight sum)
	req      *Requant         // 56: [OutC]
	tabs     **[256]int8      // 64: [OutC], nil where the body leaves the tables to lut8Rows
	inBase   *int32           // 72: [OutC] the channel's group planes past its sample's start
	outHW    int              // 80
	inSample int              // 88
	outC     int              // 96
	segStep  int              // 104: from a row segment's window to the next one's
	stride   int              // 112: 1 or 2
	zpIn     int32            // 120
	zpOut    int32            // 124
	bmasks   *[32]byte        // 128: AVX2 and SSE2: [nblk][ntaps][segs] the record masks as bytes
	reachLo  int              // AVX2 and SSE2: the lowest window byte past a group's first code (<= 0)
	reachHi  int              // AVX2 and SSE2: one past the highest (>= the group's codes)
	groupLen int              // a channel group's input codes
}

// convPlanesBlock is one block's outputs: from flat output index out,
// the lanes store names (bit i: output out+i), whose tap (0, 0) input
// lies at offset in (negative at a top or left border).
type convPlanesBlock struct {
	out, in int32
	store   uint32
	_       uint32
}

// newConvPlanesLayout builds the vector layout of k, or returns nil
// where the portable body runs: below the SSE2 tier, at a stride
// other than 1 or 2, an input zero point that is no int8 code, or a
// requantizer outside the vector bodies' range.
func newConvPlanesLayout(k *ConvPlanesInt8) *convPlanesLayout {
	g := &k.g
	inHW, outHW := g.InH*g.InW, g.OutH*g.OutW
	if int8Tier < cpu.TierSSE2 || (g.SW != 1 && g.SW != 2) || k.zpIn < -128 || k.zpIn > 127 ||
		!requantVectorOK(k.req) || outHW == 0 || g.InC*inHW >= 1<<30 {
		return nil
	}
	cols := (g.KW + 1) / 2 // entries per kernel row
	ntaps := g.ICPerG * g.KH * cols
	if ntaps == 0 {
		return nil
	}
	offs := make([]int32, ntaps)
	w := make([]int32, g.OutC*ntaps)
	seed := append([]int32(nil), k.bias...)
	for ic := 0; ic < g.ICPerG; ic++ {
		for ky := 0; ky < g.KH; ky++ {
			for c := 0; c < cols; c++ {
				t, kx := (ic*g.KH+ky)*cols+c, 2*c
				offs[t] = int32(ic*inHW + ky*g.InW + kx)
				for oc := 0; oc < g.OutC; oc++ {
					wr := k.w[((oc*g.ICPerG+ic)*g.KH+ky)*g.KW:][:g.KW]
					pair := int32(uint16(int16(wr[kx])))
					seed[oc] -= k.zpIn * int32(wr[kx])
					if kx+1 < g.KW {
						pair |= int32(wr[kx+1]) << 16
						seed[oc] -= k.zpIn * int32(wr[kx+1])
					}
					w[oc*ntaps+t] = pair
				}
			}
		}
	}
	n, segs := 32, 2 // lanes a row segment, masks a record
	if g.SW == 2 {
		n, segs = 16, 1
		if g.OutW <= 8 {
			n, segs = g.OutW, 16/g.OutW
		}
	}
	var blocks []convPlanesBlock
	var recs []uint32
	addBlock := func(o0, lanes int) {
		oy0, ox0 := o0/g.OutW, o0%g.OutW
		in := (oy0*g.SH-g.PH)*g.InW + ox0*g.SW - g.PW
		blocks = append(blocks, convPlanesBlock{out: int32(o0), in: int32(in), store: uint32(1<<lanes - 1)})
		for t, off := range offs {
			recs = append(recs, make([]uint32, 1+segs)...)
			rec := recs[len(recs)-1-segs:]
			rec[0] = uint32(off)
			ky, kx := t/cols%g.KH, t%cols*2
			for l := 0; l < lanes; l++ {
				oy, ox := (o0+l)/g.OutW, (o0+l)%g.OutW
				iy := oy*g.SH - g.PH + ky
				// Lane l's window and its pair's first byte there: at
				// stride 1 the window of its parity, at stride 2 that of
				// its row segment, in which byte 2l is its own.
				win, b := l%2, l/2*2
				if g.SW == 2 {
					win, b = l/n, 2*l
				}
				for s := 0; s < 2; s++ {
					ix := ox*g.SW - g.PW + kx + s
					if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
						rec[1+win] |= 1 << (b + s)
					}
				}
			}
		}
	}
	switch {
	case g.SW == 1 && g.SH == 1 && g.OutW == g.InW:
		// The row width is kept: the plane runs flat, rows back to back,
		// output o+i reading i past output o's input.
		for o0 := 0; o0 < outHW; o0 += n {
			addBlock(o0, min(n, outHW-o0))
		}
	case segs > 1 && g.SW == 2:
		for oy := 0; oy < g.OutH; oy += segs {
			addBlock(oy*g.OutW, min(segs, g.OutH-oy)*g.OutW)
		}
	default:
		for oy := 0; oy < g.OutH; oy++ {
			for ox0 := 0; ox0 < g.OutW; ox0 += n {
				addBlock(oy*g.OutW+ox0, min(n, g.OutW-ox0))
			}
		}
	}
	inBase := make([]int32, g.OutC)
	for oc := range inBase {
		inBase[oc] = int32(oc / g.OCPerG * g.ICPerG * inHW)
	}
	l := &convPlanesLayout{
		blocks: &blocks[0], nblk: len(blocks), recs: &recs[0], segs: segs, ntaps: ntaps,
		w: &w[0], seed: &seed[0], req: &k.req[0], inBase: &inBase[0],
		outHW: outHW, inSample: g.InC * inHW, outC: g.OutC, segStep: g.SH*g.InW - 2*n, stride: g.SW,
		zpIn: k.zpIn, zpOut: k.zpOut, groupLen: g.ICPerG * inHW,
	}
	if k.post != nil && lut8VBMI {
		l.tabs = &k.post[0]
	}
	if int8Tier < cpu.TierAVX512 {
		l.bmasks, l.reachLo, l.reachHi = byteMasks(blocks, recs, segs, l.segStep, g.SW, l.groupLen)
	}
	return l
}

// byteMasks spreads every record mask into 32 bytes (0xFF: read the
// input, 0: the zero point) and bounds the windows' reach.
func byteMasks(blocks []convPlanesBlock, recs []uint32, segs, segStep, stride, groupLen int) (*[32]byte, int, int) {
	bm := make([][32]byte, 0, len(recs))
	lo, hi := 0, groupLen
	ntaps := len(recs) / len(blocks) / (1 + segs)
	for bi, b := range blocks {
		for t := 0; t < ntaps; t++ {
			rec := recs[(bi*ntaps+t)*(1+segs):][:1+segs]
			for win, m := range rec[1:] {
				// Stride 1: the even window, then the odd one a byte on;
				// stride 2: one window per row segment.
				at := int(b.in) + int(int32(rec[0])) + win
				if stride == 2 {
					at = int(b.in) + int(int32(rec[0])) + win*segStep
				}
				lo, hi = min(lo, at), max(hi, at+32)
				var v [32]byte
				for i := range v {
					if m>>i&1 != 0 {
						v[i] = 0xFF
					}
				}
				bm = append(bm, v)
			}
		}
	}
	return &bm[0], lo, hi
}

// convPlanesInt8Accel runs planes [lo, hi) through the vector bodies.
// Without VPERMI2B the AVX-512 body leaves the fused tables to one
// lut8Rows pass per sample's run of planes.
func convPlanesInt8Accel(k *ConvPlanesInt8, dst, x []int8, lo, hi int) {
	l := k.accel
	if int8Tier < cpu.TierAVX512 {
		convPlanesInt8Acc(k, dst, x, lo, hi)
		return
	}
	convPlanesInt8AVX512(&dst[0], &x[0], l, lo, hi-lo)
	if k.post == nil || l.tabs != nil {
		return
	}
	for p := lo; p < hi; {
		oc := p % l.outC
		n := min(hi-p, l.outC-oc)
		d := dst[p*l.outHW:]
		lut8Rows(d, d, l.outHW, n, l.outHW, k.post[oc:oc+n])
		p += n
	}
}

// convPlanesInt8Acc runs each plane's taps on the AVX2 or SSE2 body
// into an int32 plane and requantizes and recodes it as a one-row tile.
func convPlanesInt8Acc(k *ConvPlanesInt8, dst, x []int8, lo, hi int) {
	l := k.accel
	var accBuf [4096 + 32]int32 // a plane and the slack of its last block
	var padBuf [4096]int8
	acc := accBuf[:]
	if l.outHW+32 > len(acc) {
		acc = make([]int32, l.outHW+32)
	}
	var post []*[256]int8
	for p := lo; p < hi; p++ {
		b, oc := p/l.outC, p%l.outC
		base := b*l.inSample + oc/k.g.OCPerG*l.groupLen
		xg := x[base:]
		if base+l.reachLo < 0 || base+l.reachHi > len(x) {
			// A window of this plane reaches past x: run it on a copy of
			// the channel group with room for every window around it.
			pad := padBuf[:]
			if n := l.reachHi - l.reachLo; n > len(pad) {
				pad = make([]int8, n)
			}
			copy(pad[-l.reachLo:], x[base:base+l.groupLen])
			xg = pad[-l.reachLo:]
		}
		if int8Tier >= cpu.TierAVX2 {
			convPlanesAccAVX2(&acc[0], &xg[0], l, oc)
		} else {
			convPlanesAccSSE2(&acc[0], &xg[0], l, oc)
		}
		if k.post != nil {
			post = k.post[oc : oc+1]
		}
		// The layout exists only where every row is in the vector range.
		req := RequantRows{req: k.req[oc : oc+1], vec: true}
		RequantTileInt8(dst[p*l.outHW:], l.outHW, acc, l.outHW, 1, l.outHW, req, k.zpOut, post)
	}
}

//go:noescape
func convPlanesInt8AVX512(dst, x *int8, l *convPlanesLayout, p0, n int)

//go:noescape
func convPlanesAccAVX2(acc *int32, xg *int8, l *convPlanesLayout, oc int)

//go:noescape
func convPlanesAccSSE2(acc *int32, xg *int8, l *convPlanesLayout, oc int)
