package inference

import (
	"errors"
	"fmt"
	"math"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Quantized-engine kernels.
//
// The integer lowering (lowerQuantOp, qplan.go) runs once at
// CompileQuantized: it quantizes weights to int8 (symmetric, per output
// channel), folds biases into int32 at the accumulator scale,
// precomputes the fixed-point requantization multipliers between layers,
// and builds 256-entry lookup tables for element-wise ops. The binders
// here turn a lowered step's data into a closure that operates on raw
// int8 code buffers under the calibration schema's affine mappings — no
// float arithmetic on the conv/dense hot path.
//
// The int32 accumulator bounds the supported reduction depth: one tap
// contributes at most 127*255 after zero-point correction, so
// reductions up to ~10^5 taps are safe — far beyond any layer in the
// model zoo.

// errNoQuantKernel reports an op without a native integer lowering; the
// compiler wraps the FP32 kernel in a dequantize/requantize island.
// ir's assign-precision step predicts this set via ir.HasIntLowering
// and marks such ops as islands up front; the error remains as the
// lowering's ground truth.
var errNoQuantKernel = errors.New("no quantized kernel")

// bindQuantStep binds a lowered step to its host kernel: a closure over
// the step's data for the kinds the plan states, the kernel the lowering
// bound for the rest. outElems is the step output's per-sample size.
func bindQuantStep(st *QuantStep, outElems int) (kernelFunc[int8], scratchSpec) {
	switch {
	case st.Conv != nil:
		return bindQuantConv(st.Conv)
	case st.Dense != nil:
		return bindQuantDense(st.Dense)
	case st.LUT != nil:
		return bindQuantLUT(st.LUT), scratchSpec{}
	case st.LUTPerChannel != nil:
		return bindQuantLUTPerChannel(st.LUTPerChannel), scratchSpec{}
	case st.MaxPool != nil:
		return recodeAfter(bindMaxPool(st.MaxPool, st.MaxPool.Empty), st.MaxPool.Recode), scratchSpec{}
	case st.GlobalAvgPool != nil:
		return bindQuantGlobalAvgPool(st.GlobalAvgPool), scratchSpec{}
	case st.Add != nil:
		// No broadcast operand: the whole sample is one plane.
		return bindQuantAdd(st.Add, make([]bool, len(st.Add.Tables)), 1, outElems)
	}
	return st.host, st.spec
}

// dequantCodes is the real value of every code under q in table order
// (code c at index c+128): the input column all tables of one stage
// share.
func dequantCodes(q tensor.QuantParams) *[256]float32 {
	var x [256]float32
	for i := range x {
		x[i] = q.Dequantize(int8(i - 128))
	}
	return &x
}

// buildLUT tabulates code → code for a scalar real function under the
// in/out affine mappings — the universal int8 lowering for element-wise
// ops (and for pure recodes with f = identity): entry c is
// outQ.Quantize(f(inQ.Dequantize(c))), the scalar quantizer's division
// form.
func buildLUT(inQ, outQ tensor.QuantParams, f func(float32) float32) *[256]int8 {
	x := dequantCodes(inQ)
	for i, v := range x {
		x[i] = f(v)
	}
	var lut [256]int8
	outQ.QuantizeTo(lut[:], x[:])
	return &lut
}

// buildAffineLUTs is buildLUT for the per-channel affine
// y = scale[ch]*x + shift[ch] (an inference-mode batch norm): one table
// per channel in one slab, the input codes dequantized once for all of
// them. With a positive finite output scale the quantizer is monotone,
// so each code has a least input that reaches it (codeBounds, found
// once): a table is then quantized in the reciprocal form
// (tensor.QuantizeSlice, no division) and every entry checked against
// its code's bounds; one outside them, on a half-code boundary where
// the two forms differ, or a NaN, takes the scalar quantizer.
func buildAffineLUTs(inQ, outQ tensor.QuantParams, scale, shift []float32) [][256]int8 {
	x := dequantCodes(inQ)
	slab := make([][256]int8, len(scale))
	var bounds *[255]float32
	if outQ.Scale > 0 && !math.IsInf(float64(outQ.Scale), 0) && len(scale) >= codeBoundsMinTables {
		bounds = codeBounds(outQ)
	}
	var y [256]float32
	for ch := range slab {
		s, sh := scale[ch], shift[ch]
		for i, v := range x {
			y[i] = v*s + sh
		}
		tbl := slab[ch][:]
		if bounds == nil {
			outQ.QuantizeTo(tbl, y[:])
			continue
		}
		tensor.QuantizeSlice(tbl, y[:], outQ)
		for i, v := range y {
			k := int(tbl[i]) + 127 // the code's bound; the next code's is one on
			if (k < 0 || bounds[k] <= v) && (k == len(bounds)-1 || v < bounds[k+1]) {
				continue
			}
			tbl[i] = outQ.Quantize(v)
		}
	}
	return slab
}

// codeBoundsMinTables is the table count from which finding the bounds
// (a few quantizations each) costs less than quantizing every entry.
const codeBoundsMinTables = 8

// codeBounds returns, at c+127 for each code c above -128, the least
// float32 that q.Quantize takes to c or above, q's scale positive and
// finite: then q.Quantize(y) is c exactly when y lies from c's bound up
// to, not including, c+1's (below -127's for -128, from 127's on for
// 127), for every y but NaN. Each bound is a bisection over the float32
// order, from a bracket of a few values around (c-zero-1/2)*scale.
func codeBounds(q tensor.QuantParams) *[255]float32 {
	var b [255]float32
	lowest, highest := floatKey(float32(math.Inf(-1))), floatKey(float32(math.Inf(1)))
	for c := int32(-127); c <= 127; c++ {
		reaches := func(k int32) bool { return int32(q.Quantize(keyFloat(k))) >= c }
		mid := floatKey(float32((float64(c) - float64(q.Zero) - 0.5) * float64(q.Scale)))
		lo, hi := max(mid-2, lowest), min(mid+2, highest)
		if reaches(lo) || !reaches(hi) {
			lo, hi = lowest, highest // -Inf reaches only -128, +Inf 127
		}
		for hi-lo > 1 {
			if m := lo + (hi-lo)/2; reaches(m) {
				hi = m
			} else {
				lo = m
			}
		}
		b[c+127] = keyFloat(hi)
	}
	return &b
}

// floatKey maps a float32 to an int32 in the same order (-0 just below
// +0, the infinities at the ends, NaNs past them); keyFloat inverts it.
func floatKey(f float32) int32 {
	k := int32(math.Float32bits(f))
	if k < 0 {
		k ^= 0x7fffffff
	}
	return k
}

func keyFloat(k int32) float32 {
	if k < 0 {
		k ^= 0x7fffffff
	}
	return math.Float32frombits(uint32(k))
}

// composeLUT rewrites tbl in place to the table of next after tbl.
func composeLUT(tbl, next *[256]int8) {
	for i, code := range tbl {
		tbl[i] = next[int(code)+128]
	}
}

// sameQuant reports whether two mappings are identical, making a recode
// a plain copy.
func sameQuant(a, b tensor.QuantParams) bool { return a.Scale == b.Scale && a.Zero == b.Zero }

// quantizeFilter lowers a weight tensor to int8 codes with one
// symmetric scale per output channel. INT8 weights from the PTQ pass
// (per-tensor symmetric) are adopted verbatim; FP32/FP16 weights —
// including the fake-quantized per-channel form — are quantized here,
// recovering per-channel scales.
func quantizeFilter(w *tensor.Tensor, outC int) ([]int8, []float64) {
	n := w.NumElements()
	perOut := n / outC
	scales := make([]float64, outC)
	if w.DType == tensor.INT8 && w.Quant.Zero == 0 && w.Quant.Scale > 0 {
		codes := make([]int8, n)
		copy(codes, w.I8)
		for oc := range scales {
			scales[oc] = float64(w.Quant.Scale)
		}
		return codes, scales
	}
	vals := weightValues(w)
	codes := make([]int8, n)
	for oc := 0; oc < outC; oc++ {
		ch := vals[oc*perOut : (oc+1)*perOut]
		q := tensor.SymmetricParams(ch)
		scales[oc] = float64(q.Scale)
		q.QuantizeTo(codes[oc*perOut:], ch)
	}
	return codes, scales
}

// foldBias converts a real-valued bias to int32 at the accumulator
// scale sIn*sW[oc], plus the per-channel requantizers to the output
// scale.
func foldBias(bias *tensor.Tensor, wScales []float64, inQ, outQ tensor.QuantParams) ([]int32, []tensor.Requant) {
	outC := len(wScales)
	sIn, sOut := float64(inQ.Scale), float64(outQ.Scale)
	b32 := make([]int32, outC)
	req := make([]tensor.Requant, outC)
	var bv []float32
	if bias != nil {
		bv = bias.Float32s()
	}
	for oc := 0; oc < outC; oc++ {
		accScale := sIn * wScales[oc]
		req[oc] = tensor.NewRequant(accScale / sOut)
		if bv != nil && accScale > 0 {
			b32[oc] = int32(math.Round(float64(bv[oc]) / accScale))
		}
	}
	return b32, req
}

// qconv is the bound state of one integer convolution on the GEMM form.
// The GEMM binder widens the weight codes to int16: the B pack shifts
// the input side by the zero point into int16 as well (so padding
// contributes exactly 0), and the multiply-accumulate runs through the
// int16 GEMM.
type qconv struct {
	g      convGeom
	w      []int8
	bias32 []int32
	req    []tensor.Requant
	zpIn   int32
	zpOut  int32
	post   []*[256]int8 // per-channel fused-epilogue recode, nil when unfused
}

// postRows returns the fused-epilogue recode tables of output channels
// oc..oc+n-1, or nil when unfused.
func (p *qconv) postRows(oc, n int) []*[256]int8 {
	if p.post == nil {
		return nil
	}
	return p.post[oc : oc+n]
}

// newQConv is the bind-time form of an integer convolution.
func newQConv(pc *PlanConv) *qconv {
	return &qconv{g: planConvGeom(pc.Geom), w: pc.W, bias32: pc.Bias, req: pc.Req, zpIn: pc.ZPIn, zpOut: pc.ZPOut, post: pc.Post}
}

// planConvGeom is the binders' form of a plan's conv geometry.
func planConvGeom(pg ConvGeom) convGeom {
	return convGeom{
		inC: pg.InC, inH: pg.InH, inW: pg.InW,
		outC: pg.OutC, outH: pg.OutH, outW: pg.OutW,
		kh: pg.KH, kw: pg.KW, sh: pg.SH, sw: pg.SW, ph: pg.PH, pw: pg.PW,
		icPerG: pg.ICPerG, ocPerG: pg.OCPerG,
	}
}

func bindQuantConv(pc *PlanConv) (kernelFunc[int8], scratchSpec) {
	g := planConvGeom(pc.Geom)
	// A dense-shaped conv runs on the dense core, as in the FP32 binder,
	// when its input zero point is a code the dense row staging shifts
	// by: integer accumulation and the same Req and Post per output make
	// it exact.
	if g.dense() && pc.ZPIn >= -128 && pc.ZPIn <= 127 {
		return bindQuantDense(&PlanDense{InF: g.inC, OutF: g.outC, W: pc.W, Bias: pc.Bias,
			Req: pc.Req, ZPIn: pc.ZPIn, ZPOut: pc.ZPOut, Post: pc.Post})
	}
	// Routing mirrors the FP32 binder: convolutions with a real channel
	// reduction (stems and pointwise projections) run the GEMM
	// micro-kernels (the u8×s8 body on a VNNI host, the int16 ones
	// elsewhere) from a per-tile B pack. Depthwise and other shallow
	// reductions run the one-pass plane kernel instead
	// (bindQuantConvPlane), and so does a conv whose zero point the B
	// pack cannot stage (see bindQuantConvGemm).
	if convGemmEligible(g) {
		if kern, spec, ok := bindQuantConvGemm(newQConv(pc)); ok {
			return kern, spec
		}
	}
	return bindQuantConvPlane(pc), scratchSpec{}
}

// bindQuantConvPlane binds the plane form of an integer convolution,
// which covers every geometry and zero point: one tensor.ConvPlanesInt8
// call over every (batch, output-channel) plane reads the int8 codes
// where they lie and writes each output code once, requantized and
// recoded through the channel's fused table.
func bindQuantConvPlane(pc *PlanConv) kernelFunc[int8] {
	k := tensor.NewConvPlanesInt8(pc.Geom, pc.W, pc.Bias, pc.Req, pc.ZPIn, pc.ZPOut, pc.Post)
	outC := pc.Geom.OutC
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		k.Run(dst, srcs[0], 0, rc.batch*outC)
		return nil
	}
}

func bindQuantDense(d *PlanDense) (kernelFunc[int8], scratchSpec) {
	inF, outF, codes, bias32, req, post := d.InF, d.OutF, d.W, d.Bias, d.Req, d.Post
	zpIn, zpOut := d.ZPIn, d.ZPOut
	// Same orientation as the FP32 bindDense: M = samples, N = out
	// features, so every lane is live at batch 1. The widened weight
	// codes are the bind-time packed B tiles, each call widens the
	// activation rows row-major with the zero-point shift fused (a row's
	// adjacent codes are the kernel's K pairs as they lie), the kernel
	// multiplies only the rows a panel has, and the int32 C tile
	// requantizes straight into the sample-major output. Integer
	// accumulation is associative, so the folded bias joins at
	// requantization instead of seeding the tile.
	kern := tensor.PickGemmI16MaxWidth(max(outF, 16)) // bindDense's cap: both executors run one tier
	mr, nr := kern.MR, kern.NR
	kp := tensor.KPairs(inF)
	lda := 2 * kp
	nt := (outF + nr - 1) / nr
	// B tiles: per tile of nr output features, kp rows of nr adjacent-K
	// pairs; columns past outF and the odd-K tail stay zero.
	bpack := make([]int16, nt*nr*2*kp)
	for o0 := 0; o0 < outF; o0 += nr {
		rows := bpack[o0/nr*nr*2*kp:]
		cols := min(outF-o0, nr)
		for k := 0; k < inF; k++ {
			for j := 0; j < cols; j++ {
				rows[(k/2*nr+j)*2+k%2] = int16(codes[(o0+j)*inF+k])
			}
		}
	}
	zeroBias := make([]int32, mr)
	spec := scratchSpec{i16: mr * lda, i32: mr * nr}
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		xv := srcs[0]
		arows := rc.i16Scratch(mr * lda)
		ctile := rc.i32Scratch(mr * nr)
		for i0 := 0; i0 < rc.batch; i0 += mr {
			mh := min(rc.batch-i0, mr)
			for i := 0; i < mh; i++ {
				row := arows[i*lda : (i+1)*lda]
				tensor.WidenShiftInt8(row[:inF], xv[(i0+i)*inF:], int16(zpIn))
				clear(row[inF:]) // the odd-K tail
			}
			for t := 0; t < nt; t++ {
				o0 := t * nr
				jw := min(outF-o0, nr)
				kern.Run(arows, lda, mh, bpack[t*nr*2*kp:(t+1)*nr*2*kp], 2*nr, kp, zeroBias, ctile, nr)
				for i := 0; i < mh; i++ {
					row := dst[(i0+i)*outF+o0:][:jw]
					for j := range row {
						o := o0 + j
						code := tensor.ClampInt8(zpOut + req[o].Apply(ctile[i*nr+j]+bias32[o]))
						if post != nil {
							code = post[o][int(code)+128]
						}
						row[j] = code
					}
				}
			}
		}
		return nil
	}, spec
}

// bindQuantLUTPerChannel applies one code table per channel over NCHW
// planes (the batch-norm lowering).
func bindQuantLUTPerChannel(pc *PlanLUTPerChannel) kernelFunc[int8] {
	c, hw, luts := pc.C, pc.HW, pc.Tables
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		xv := srcs[0]
		for p := 0; p < rc.batch*c; p++ {
			tensor.LUT8(dst[p*hw:(p+1)*hw], xv[p*hw:(p+1)*hw], luts[p%c])
		}
		return nil
	}
}

// bindQuantLUT applies one element-wise code table (activations and
// recodes); a nil table is the plain copy of a layout op (flatten,
// identity) whose mappings agree.
func bindQuantLUT(l *PlanLUT) kernelFunc[int8] {
	lut := l.Table
	if lut == nil {
		return bindCopy[int8]()
	}
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		tensor.LUT8(dst, srcs[0][:len(dst)], lut)
		return nil
	}
}

// recodeAfter runs a code-moving kernel and then recodes its whole
// output in place through recode, onto the output mapping; a nil recode
// leaves the kernel as it is.
func recodeAfter(kern kernelFunc[int8], recode *[256]int8) kernelFunc[int8] {
	if recode == nil {
		return kern
	}
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		if err := kern(rc, dst, srcs); err != nil {
			return err
		}
		tensor.LUT8(dst, dst, recode)
		return nil
	}
}

func bindQuantAvgPool(n *nn.Node, in, out tensor.Shape, inQ, outQ tensor.QuantParams) (kernelFunc[int8], error) {
	mp, err := poolGeom(n, in, out)
	if err != nil {
		return nil, err
	}
	// Averages divide by the in-bounds tap count (count_include_pad =
	// false), which varies at the edges: one requantizer per possible
	// count folds the division into the fixed-point multiplier.
	sIn, sOut := float64(inQ.Scale), float64(outQ.Scale)
	maxCount := mp.KH * mp.KW
	reqByCount := make([]tensor.Requant, maxCount+1)
	for cnt := 1; cnt <= maxCount; cnt++ {
		reqByCount[cnt] = tensor.NewRequant(sIn / (sOut * float64(cnt)))
	}
	zpIn, zpOut := inQ.Zero, outQ.Zero
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		xv := srcs[0]
		for p := 0; p < rc.batch*mp.C; p++ {
			base := p * mp.InH * mp.InW
			outBase := p * mp.OutH * mp.OutW
			for oy := 0; oy < mp.OutH; oy++ {
				iy0, kyLo, kyHi := poolWindow(oy, mp.SH, mp.PH, mp.KH, mp.InH)
				for ox := 0; ox < mp.OutW; ox++ {
					ix0, kxLo, kxHi := poolWindow(ox, mp.SW, mp.PW, mp.KW, mp.InW)
					var sum int32
					for ky := kyLo; ky < kyHi; ky++ {
						row := base + (iy0+ky)*mp.InW + ix0
						for kx := kxLo; kx < kxHi; kx++ {
							sum += int32(xv[row+kx])
						}
					}
					var q int32
					if count := (kyHi - kyLo) * (kxHi - kxLo); count > 0 {
						q = reqByCount[count].Apply(sum - int32(count)*zpIn)
					}
					dst[outBase+oy*mp.OutW+ox] = tensor.ClampInt8(zpOut + q)
				}
			}
		}
		return nil
	}, nil
}

func bindQuantGlobalAvgPool(gp *PlanGlobalAvgPool) kernelFunc[int8] {
	c, hw, req, zpIn, zpOut := gp.C, gp.HW, gp.Req, gp.ZPIn, gp.ZPOut
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		xv := srcs[0]
		var sums [256]int32 // planes summed per kernel call
		for p0 := 0; p0 < rc.batch*c; p0 += len(sums) {
			n := min(len(sums), rc.batch*c-p0)
			tensor.SumRowsInt8(sums[:n], xv[p0*hw:], hw)
			for i, sum := range sums[:n] {
				dst[p0+i] = tensor.ClampInt8(zpOut + req.Apply(sum-int32(hw)*zpIn))
			}
		}
		return nil
	}
}

// classifyBroadcast mirrors bindAccumulate's compile-time operand
// classification: full element-wise, or the [C,1,1] channel broadcast.
func classifyBroadcast(ins []tensor.Shape, out tensor.Shape) ([]bool, error) {
	broadcast := make([]bool, len(ins))
	for i := 1; i < len(ins); i++ {
		s := ins[i]
		switch {
		case s.Equal(out):
			broadcast[i] = false
		case len(out) == 3 && len(s) == 3 && s[0] == out[0] && s[1] == 1 && s[2] == 1:
			broadcast[i] = true
		default:
			return nil, fmt.Errorf("%w: %v vs %v", tensor.ErrShape, out, s)
		}
	}
	return broadcast, nil
}

// planeChunk bounds the elements of scratch an element-wise pass holds:
// longer planes go through in pieces.
const planeChunk = 4096

// bindQuantAdd binds element-wise addition over c planes of hw elements
// a sample (one plane per channel when an operand is a [C,1,1] broadcast,
// the whole sample as one plane otherwise). A plane is one accumulate
// pass per full operand (tensor.AccumLUT32; the broadcast operands and
// the output zero point seed the first) and a saturating narrow, whatever
// the arity.
func bindQuantAdd(add *PlanAdd, broadcast []bool, c, hw int) (kernelFunc[int8], scratchSpec) {
	luts := add.Tables
	chunk := min(hw, planeChunk)
	zpOut := add.ZPOut
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		acc := rc.i32Scratch(chunk)
		for p := 0; p < rc.batch*c; p++ {
			seed := zpOut
			for op := 1; op < len(srcs); op++ {
				if broadcast[op] {
					seed += luts[op][int(srcs[op][p])+128]
				}
			}
			for j := p * hw; j < (p+1)*hw; j += chunk {
				n := min(chunk, (p+1)*hw-j)
				for op, src := range srcs {
					if !broadcast[op] {
						tensor.AccumLUT32(acc[:n], src[j:j+n], luts[op], seed, op > 0)
					}
				}
				tensor.NarrowSatInt8(dst[j:j+n], acc[:n])
			}
		}
		return nil
	}, scratchSpec{i32: chunk}
}

// bindQuantMul lowers two-operand multiplication (the squeeze-excite
// channel scale and element-wise gating): the zero-point-corrected
// product fits int32 and one fixed-point multiplier rescales it. A block
// of elements is widened (tensor.WidenShiftInt8), multiplied into int32
// and requantized by the tile epilogue. Under a [C,1,1] second operand a
// block is a run of whole planes, each scaled by its channel's factor
// (tensor.ScaleRowsInt16); otherwise the sample is one plane and a block
// a piece of it.
func bindQuantMul(ins []tensor.Shape, out tensor.Shape, inQ []tensor.QuantParams, outQ tensor.QuantParams) (kernelFunc[int8], scratchSpec, error) {
	broadcast, err := classifyBroadcast(ins, out)
	if err != nil {
		return nil, scratchSpec{}, err
	}
	req := tensor.NewRequant(float64(inQ[0].Scale) * float64(inQ[1].Scale) / float64(outQ.Scale))
	zpA, zpB, zpOut := int16(inQ[0].Zero), int16(inQ[1].Zero), outQ.Zero
	c, hw := 1, out.NumElements()
	if broadcast[1] {
		c, hw = out[0], out[1]*out[2]
	}
	chunk := min(hw, planeChunk)      // elements of one plane a block takes
	perBlock := max(planeChunk/hw, 1) // whole planes per block, 1 once a plane outgrows it
	reqs := make([]tensor.Requant, perBlock)
	for i := range reqs {
		reqs[i] = req
	}
	rows := tensor.NewRequantRows(reqs)
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		av, bv := srcs[0], srcs[1]
		ws := rc.i16Scratch(2 * perBlock * chunk)
		a16, b16 := ws[:perBlock*chunk], ws[perBlock*chunk:] // b16: the other operand, or one factor per plane
		acc := rc.i32Scratch(perBlock * chunk)
		for p := 0; p < rc.batch*c; p += perBlock {
			g := min(perBlock, rc.batch*c-p)
			for j := 0; j < hw; j += chunk {
				n, base := min(chunk, hw-j), p*hw+j
				tensor.WidenShiftInt8(a16[:g*n], av[base:], zpA)
				if broadcast[1] {
					tensor.WidenShiftInt8(b16[:g], bv[p:], zpB)
					tensor.ScaleRowsInt16(acc, a16, b16[:g], n)
				} else {
					tensor.WidenShiftInt8(b16[:g*n], bv[base:], zpB)
					for i, a := range a16[:g*n] {
						acc[i] = int32(a) * int32(b16[i])
					}
				}
				tensor.RequantTileInt8(dst[base:], n, acc, n, g, n, rows, zpOut, nil)
			}
		}
		return nil
	}, scratchSpec{i16: 2 * perBlock * chunk, i32: perBlock * chunk}, nil
}

// bindQuantConcat copies each branch into its channel range of the
// output, then recodes the range in place through luts[i] where branch
// i's mapping differs from the output's (nil: no recode).
func bindQuantConcat(ins []tensor.Shape, out tensor.Shape, luts []*[256]int8) (kernelFunc[int8], error) {
	move, err := bindConcat[int8](ins, out)
	if err != nil {
		return nil, err
	}
	totalPer := out.NumElements()
	return func(rc *runCtx, dst []int8, srcs [][]int8) error {
		if err := move(rc, dst, srcs); err != nil {
			return err
		}
		for b := 0; b < rc.batch; b++ {
			off := b * totalPer
			for i, s := range ins {
				part := dst[off:][:s.NumElements()]
				if luts[i] != nil {
					tensor.LUT8(part, part, luts[i])
				}
				off += len(part)
			}
		}
		return nil
	}, nil
}

// wrapFP32Fallback runs an op without an integer lowering as an FP32
// island: dequantize its int8 inputs into planned scratch, execute the
// bound FP32 kernel, quantize the result back. Coverage stays total
// while the cost is confined to the wrapped step (softmax heads and
// other non-linear reductions). The returned spec declares the island's
// per-sample staging (inputs plus output); island ops never carry their
// own FP32 kernel scratch, so the region is exclusively the wrapper's.
func wrapFP32Fallback(kern kernelFunc[float32], ins []tensor.Shape, out tensor.Shape, inQ []tensor.QuantParams, outQ tensor.QuantParams) (kernelFunc[int8], scratchSpec) {
	inElems := make([]int, len(ins))
	total := out.NumElements()
	outElems := total
	for i, s := range ins {
		inElems[i] = s.NumElements()
		total += inElems[i]
	}
	qfn := func(rc *runCtx, dst []int8, srcs [][]int8) error {
		scratch := rc.f32Sample(total)
		off := 0
		fsrcs := make([][]float32, len(srcs))
		for i, src := range srcs {
			n := inElems[i] * rc.batch
			buf := scratch[off : off+n]
			off += n
			tensor.DequantizeSlice(buf, src, inQ[i])
			fsrcs[i] = buf
		}
		fdst := scratch[off : off+outElems*rc.batch]
		if err := kern(rc, fdst, fsrcs); err != nil {
			return err
		}
		tensor.QuantizeSlice(dst, fdst, outQ)
		return nil
	}
	return qfn, scratchSpec{f32PerSample: total}
}
