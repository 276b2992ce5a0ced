package inference

import (
	"slices"

	"vedliot/internal/tensor"
)

// GEMM lowering of convolution and dense layers.
//
// Channel-heavy convolutions become C = A·B with M = output channels,
// N = output pixels and K = taps: A is the [outC, taps] weight matrix,
// copied at bind time and read row-major by the micro-kernel (INT8: the
// codes, each row's K padded to a quad, on a VNNI host, the widened codes
// padded to a pair elsewhere; bindQuantConvGemm), and B is built one
// NR-wide tile at a time with the im2col gather fused into the pack —
// no full patch matrix ever materializes, so the working set is one B
// tile plus one C tile regardless of layer size. Pointwise
// convolutions skip the pack entirely on full tiles: their natural
// NCHW layout already is the B matrix (row stride = the pixel count),
// which the micro-kernel consumes directly through its ldb argument.
//
// The kernel walks (sample, group, N-tile) items; each item packs its B
// tile once and sweeps the group's MR-row panels of A over it while the
// tile is cache-hot, the last panel at its own row count. Pack and
// C-tile scratch comes from the engine's planned scratch allocation
// (scratch.go).
//
// FP32 results stay bitwise identical to the interpreter: the kernels
// initialize accumulators with the bias and add one separate-rounded
// product per tap in (ic, ky, kx) order (see tensor/gemm.go). The
// quantized path accumulates in int32, which is associative, so it is
// exact regardless of variant, the u8×s8 body's folded bias included.
//
// Dense layers use the same micro-kernels the other way round — M =
// samples, N = out features, the weights as bind-time packed B tiles —
// so the lanes are full at batch 1 (bindDense, bindQuantDense).

// gemmMinTaps is the K depth below which a convolution stays on the
// direct plane form (convPad): a too-short reduction cannot amortize
// the B-tile pack, and the depthwise layers it covers stream the input
// exactly once there.
const gemmMinTaps = 16

// convGemmEligible reports whether a convolution routes onto the packed
// GEMM path: a real channel reduction that is deep enough to amortize
// the per-tile pack, or a single-input-channel stem (whose gather
// vectorizes through the precomputed segment plans, so even a 9-tap
// reduction beats the direct form). Depthwise layers (icPerG == 1 with
// several groups) stay on the direct path: per-group GEMMs of M = 1
// cannot use the register tiles. Shared by the FP32 and quantized
// binders so both engines make the same routing decision.
func convGemmEligible(g *ConvGeom) bool {
	if g.InC == 1 && g.KH*g.KW > 1 {
		return true
	}
	return g.ICPerG > 1 && g.ICPerG*g.KH*g.KW >= gemmMinTaps
}

// convSeg is one segment of a precomputed im2col row plan: n elements
// at row offset dst, element i read from plane-relative offset
// src + i*step. Step 0 is padding (the segment takes the pad value), 1 a
// contiguous copy, 2 the vector gather, anything larger a scalar strided
// copy. Every B-tile row is described once at bind time, so the per-call
// fill does no index arithmetic at all — the same plan serves every
// channel, group, sample and call, shifted only by the channel plane
// base.
type convSeg struct {
	dst, src, n, step int32
}

// buildRowPlan returns the segment plan for one (ky, kx) tap row of
// the B tile covering output pixels j0..j0+jw-1 (nr-wide row, columns
// past jw padded).
func buildRowPlan(g *ConvGeom, ky, kx, j0, jw, nr int) []convSeg {
	var segs []convSeg
	emit := func(step, dst, src, n int) {
		if n <= 0 {
			return
		}
		if step == 0 && len(segs) > 0 {
			if last := &segs[len(segs)-1]; last.step == 0 && int(last.dst+last.n) == dst {
				last.n += int32(n)
				return
			}
		}
		segs = append(segs, convSeg{dst: int32(dst), src: int32(src), n: int32(n), step: int32(step)})
	}
	for j := 0; j < jw; {
		p := j0 + j
		oy, ox0 := p/g.OutW, p%g.OutW
		run := min(g.OutW-ox0, jw-j)
		// Output columns lo..hi-1 of the run have their tap in bounds.
		lo, hi, src := run, run, 0
		if iy := oy*g.SH - g.PH + ky; iy >= 0 && iy < g.InH {
			ix0 := ox0*g.SW - g.PW + kx
			lo = 0
			if ix0 < 0 {
				lo = min((-ix0+g.SW-1)/g.SW, run)
			}
			if ix0 >= g.InW {
				hi = lo
			} else if last := (g.InW - 1 - ix0) / g.SW; last+1 < hi {
				hi = max(last+1, lo)
			}
			src = iy*g.InW + ix0 + g.SW*lo
		}
		emit(0, j, 0, lo)
		emit(g.SW, j+lo, src, hi-lo)
		emit(0, j+hi, 0, run-hi)
		j += run
	}
	emit(0, jw, 0, nr-jw)
	return segs
}

// buildConvPlans precomputes the B-tile row plans for every (tile,
// tap) of a convolution.
func buildConvPlans(g *ConvGeom, nr, nt, px int) [][]convSeg {
	plans := make([][]convSeg, 0, nt*g.KH*g.KW)
	for t := 0; t < nt; t++ {
		j0 := t * nr
		jw := min(px-j0, nr)
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				plans = append(plans, buildRowPlan(g, ky, kx, j0, jw, nr))
			}
		}
	}
	return plans
}

// packConvTile fills the rows of one B tile for (sample b, group grp),
// fusing the im2col gather: the tile's segment plans are replayed against
// each input-channel plane of the group, one nr-wide row per tap in the
// interpreter's (ic, ky, kx) order. Padding takes pad (0 for FP32, the
// zero-point code for INT8) and gather2 is the element type's stride-2
// vector gather.
func packConvTile[T float32 | int8](rows, xv []T, g *ConvGeom, nr, b, grp int, plans [][]convSeg, pad T, gather2 func(dst, src []T)) {
	planeSize := g.InH * g.InW
	kk := 0
	for ic := 0; ic < g.ICPerG; ic++ {
		plane := xv[(b*g.InC+grp*g.ICPerG+ic)*planeSize:][:planeSize]
		for _, plan := range plans {
			row := rows[kk*nr : (kk+1)*nr]
			for _, s := range plan {
				seg := row[s.dst : s.dst+s.n]
				switch s.step {
				case 0:
					for i := range seg {
						seg[i] = pad
					}
				case 1:
					copy(seg, plane[s.src:s.src+s.n])
				case 2:
					gather2(seg, plane[s.src:])
				default:
					for i := range seg {
						seg[i] = plane[s.src+int32(i)*s.step]
					}
				}
			}
			kk++
		}
	}
}

// bindConvGemm lowers one FP32 convolution onto the GEMM
// micro-kernels. A is a bind-time copy of the [outC, taps] weight
// matrix, which the kernel reads row-major; the returned kernel streams
// B tiles through planned scratch.
func bindConvGemm(g ConvGeom, w *tensor.Tensor, bias []float32, ep *epilogue) (kernelFunc[float32], scratchSpec) {
	taps := g.ICPerG * g.KH * g.KW
	px := g.OutH * g.OutW
	// N is the per-image pixel count: deep layers shrink to 4x4 = 16
	// pixels, where a 48-wide ZMM tile would pack 2/3 zero padding.
	kern := tensor.PickGemmF32MaxWidth(px)
	mr, nr := kern.MR, kern.NR
	groups := g.InC / g.ICPerG
	// A copy, not the graph's own weights: the engine is a snapshot of
	// the graph at Compile.
	a := slices.Clone(weightValues(w)[:g.OutC*taps])
	// The kernel seeds all MR rows from the bias, so a short panel reads
	// past its group's entries (the last one into the zero tail).
	biasAll := make([]float32, g.OutC+mr)
	copy(biasAll, bias)
	pointwise := convPointwise(&g)
	nt := (px + nr - 1) / nr
	ktaps := g.KH * g.KW
	plans := buildConvPlans(&g, nr, nt, px)
	scratch := taps*nr + mr*nr
	kfn := func(rc *runCtx, dst []float32, srcs [][]float32) error {
		xv := srcs[0]
		ws := rc.f32Scratch(scratch)
		bpack := ws[:taps*nr]
		ctile := ws[taps*nr:]
		for it := 0; it < rc.batch*groups*nt; it++ {
			b := it / (groups * nt)
			rem := it % (groups * nt)
			t := rem % nt
			grp := rem / nt
			j0 := t * nr
			jw := min(px-j0, nr)
			bt, ldb := bpack, nr
			if pointwise && jw == nr {
				// The input planes of this group are the B matrix already.
				bt, ldb = xv[(b*g.InC+grp*g.ICPerG)*px+j0:], px
			} else {
				packConvTile(bpack, xv, &g, nr, b, grp, plans[t*ktaps:(t+1)*ktaps], 0, tensor.GatherStride2F32)
			}
			for p0 := 0; p0 < g.OCPerG; p0 += mr {
				oc0 := grp*g.OCPerG + p0
				mh := min(g.OCPerG-p0, mr)
				// A full-width tile lands in dst and takes its epilogue
				// in place; a ragged one leaves the C tile through it.
				out := dst[(b*g.OutC+oc0)*px+j0:]
				if jw == nr {
					kern.Run(a[oc0*taps:], taps, mh, bt, ldb, taps, biasAll[oc0:], out, px)
					if ep != nil {
						ep.tile(out, px, out, px, mh, jw, oc0, true)
					}
				} else {
					kern.Run(a[oc0*taps:], taps, mh, bt, ldb, taps, biasAll[oc0:], ctile, nr)
					ep.tile(out, px, ctile, nr, mh, jw, oc0, true)
				}
			}
		}
		return nil
	}
	return kfn, scratchSpec{f32: scratch}
}

// quantConvU8 is the u8×s8 body the integer GEMM convolutions bind on
// where haveQuantConvU8 says the host has one (VNNI at the AVX-512
// tier); elsewhere they bind on the int16 bodies.
var quantConvU8, haveQuantConvU8 = tensor.PickGemmU8()

// bindQuantConvGemm lowers one integer convolution onto the GEMM
// micro-kernels. B tiles pack per item, and the C tiles of every panel
// under one B tile requantize in one tensor.RequantTileInt8 while they
// are cache-hot. The B pack replays the FP32 pack's segment plans on
// int8 codes into a staging tile (runs of the input plane move as byte
// copies and stride-2 byte gathers), padding with the zero-point code;
// a pointwise conv's input planes are the rows as they lie. One pack
// call then lays the rows out for the body:
//   - on the u8×s8 body (quantConvU8) A is the weight codes, each row's
//     K padded to a quad, tensor.PackQuadXorInt8 flips each code's top
//     bit (x+128 as a u8), and each channel's bias is Bias -
//     (ZPIn+128)·Σw, so the sum is Bias + Σ w·(x-ZPIn) exactly;
//   - on the int16 bodies A is the widened codes, each row's K padded to
//     a pair, and tensor.PackPairShiftInt8 widens, shifts by the zero
//     point and interleaves the rows pair by pair.
//
// Either way the zero-point padding adds exactly 0. The staging needs
// the zero point to be an int8 code; ok is false otherwise and the
// caller keeps the plane form, which has no such limit.
func bindQuantConvGemm(pc *PlanConv) (kfn kernelFunc[int8], spec scratchSpec, ok bool) {
	// The kernel keeps these, not pc: A and the bias are copies, so the
	// step's weight codes can go once it is bound.
	g, zpIn, zpOut, post := pc.Geom, pc.ZPIn, pc.ZPOut, pc.Post
	if zpIn < -128 || zpIn > 127 {
		return nil, scratchSpec{}, false
	}
	taps := g.ICPerG * g.KH * g.KW
	px := g.OutH * g.OutW
	// panels packs one B tile from rows (taps rows of n codes at stride
	// lds) and runs the group's MR-row panels from channel oc0 over it
	// into ctile. Both forms seed a whole panel from the bias, so a short
	// panel reads past its group's entries (the last one into the zero
	// tail), as in bindConvGemm.
	var nr int
	var panels func(rc *runCtx, rows []int8, lds, n, oc0 int, ctile []int32)
	if haveQuantConvU8 {
		kern := quantConvU8
		nr = kern.NR
		kq := tensor.KQuads(taps)
		lda := 4 * kq
		a := make([]int8, g.OutC*lda)
		bias := make([]int32, g.OutC+kern.MR)
		for oc := 0; oc < g.OutC; oc++ {
			w := pc.W[oc*taps:][:taps]
			var sum int32
			for _, v := range w {
				sum += int32(v)
			}
			copy(a[oc*lda:], w)
			bias[oc] = pc.Bias[oc] - (zpIn+128)*sum
		}
		spec.u8 = kq * 4 * nr
		panels = func(rc *runCtx, rows []int8, lds, n, oc0 int, ctile []int32) {
			bpack := rc.u8Scratch(spec.u8)
			tensor.PackQuadXorInt8(bpack, 4*nr, rows, lds, taps, n)
			kern.Run(a[oc0*lda:], lda, g.OCPerG, bpack, 4*nr, kq, bias[oc0:], ctile, nr)
		}
	} else {
		// Same narrow-N tile cap as bindConvGemm.
		kern := tensor.PickGemmI16MaxWidth(px)
		mr := kern.MR
		nr = kern.NR
		kp := tensor.KPairs(taps)
		lda := 2 * kp
		a := make([]int16, g.OutC*lda)
		for oc := 0; oc < g.OutC; oc++ {
			tensor.WidenShiftInt8(a[oc*lda:oc*lda+taps], pc.W[oc*taps:], 0)
		}
		bias := make([]int32, g.OutC+mr)
		copy(bias, pc.Bias)
		spec.i16 = kp * 2 * nr
		panels = func(rc *runCtx, rows []int8, lds, n, oc0 int, ctile []int32) {
			bpack := rc.i16Scratch(spec.i16)
			tensor.PackPairShiftInt8(bpack, 2*nr, rows, lds, taps, n, int16(zpIn))
			for p0 := 0; p0 < g.OCPerG; p0 += mr {
				kern.Run(a[(oc0+p0)*lda:], lda, min(g.OCPerG-p0, mr), bpack, 2*nr, kp, bias[oc0+p0:], ctile[p0*nr:], nr)
			}
		}
	}
	nt := (px + nr - 1) / nr
	pointwise := convPointwise(&g)
	ktaps := g.KH * g.KW
	var plans [][]convSeg
	groups := g.InC / g.ICPerG
	// The C tiles of every panel under one B tile, requantized in one call.
	spec.i32 = g.OCPerG * nr
	if !pointwise {
		plans = buildConvPlans(&g, nr, nt, px)
		spec.i8 = taps * nr
	}
	req := tensor.NewRequantRows(pc.Req)
	kfn = func(rc *runCtx, dst []int8, srcs [][]int8) error {
		xv := srcs[0]
		ctile := rc.i32Scratch(spec.i32)
		stage := rc.i8Scratch(spec.i8)
		for it := 0; it < rc.batch*groups*nt; it++ {
			b := it / (groups * nt)
			rem := it % (groups * nt)
			grp := rem / nt
			t := rem % nt
			j0 := t * nr
			jw := min(px-j0, nr)
			oc0 := grp * g.OCPerG
			if pointwise {
				// Tap k's values are the contiguous pixels j0..j0+jw-1 of
				// input plane k: the planes are the rows to pack as they lie.
				panels(rc, xv[(b*g.InC+grp*g.ICPerG)*px+j0:], px, jw, oc0, ctile)
			} else {
				packConvTile(stage, xv, &g, nr, b, grp, plans[t*ktaps:(t+1)*ktaps], int8(zpIn), tensor.GatherStride2Int8)
				panels(rc, stage, nr, nr, oc0, ctile)
			}
			tensor.RequantTileInt8(dst[(b*g.OutC+oc0)*px+j0:], px, ctile, nr, g.OCPerG, jw, req.Slice(oc0, oc0+g.OCPerG), zpOut, postRows(post, oc0, g.OCPerG))
		}
		return nil
	}
	return kfn, spec, true
}

// postRows returns the fused-epilogue recode tables of output channels
// oc..oc+n-1, or nil when the conv is unfused.
func postRows(post []*[256]int8, oc, n int) []*[256]int8 {
	if post == nil {
		return nil
	}
	return post[oc : oc+n]
}
