package inference

import (
	"fmt"
	"math"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// conv2d implements grouped 2-D convolution with zero padding in NCHW
// layout. Depthwise convolution is the groups == channels special case.
func conv2d(n *nn.Node, x *tensor.Tensor) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("conv wants NCHW, got %v", x.Shape)
	}
	w := n.Weight(nn.WeightKey)
	if w == nil {
		return nil, fmt.Errorf("conv has no weights (built with Weights: false?)")
	}
	a := n.Attrs
	batch, inC, inH, inW := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	groups := a.Groups
	if groups <= 0 {
		groups = 1
	}
	outC := a.OutC
	if n.Op == nn.OpDepthwiseConv {
		groups = inC
		if outC == 0 {
			outC = inC
		}
	}
	if inC%groups != 0 || outC%groups != 0 {
		return nil, fmt.Errorf("channels %d/outC %d not divisible by groups %d", inC, outC, groups)
	}
	wantW := tensor.Shape{outC, inC / groups, a.KernelH, a.KernelW}
	if !w.Shape.Equal(wantW) {
		return nil, fmt.Errorf("weight shape %v, want %v", w.Shape, wantW)
	}
	outH := (inH+2*a.PadH-a.KernelH)/a.StrideH + 1
	outW := (inW+2*a.PadW-a.KernelW)/a.StrideW + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("conv output collapses to %dx%d", outH, outW)
	}

	xv := x.Float32s()
	wv := w.Float32s()
	var bias []float32
	if bt := n.Weight(nn.BiasKey); bt != nil {
		bias = bt.Float32s()
	}

	out := tensor.New(tensor.FP32, batch, outC, outH, outW)
	icPerG := inC / groups
	ocPerG := outC / groups

	for b := 0; b < batch; b++ {
		for oc := 0; oc < outC; oc++ {
			g := oc / ocPerG
			icBase := g * icPerG
			var b0 float32
			if bias != nil {
				b0 = bias[oc]
			}
			for oy := 0; oy < outH; oy++ {
				iy0 := oy*a.StrideH - a.PadH
				for ox := 0; ox < outW; ox++ {
					ix0 := ox*a.StrideW - a.PadW
					acc := b0
					for ic := 0; ic < icPerG; ic++ {
						xBase := ((b*inC + icBase + ic) * inH) * inW
						wBase := ((oc*icPerG + ic) * a.KernelH) * a.KernelW
						for ky := 0; ky < a.KernelH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= inH {
								continue
							}
							xRow := xBase + iy*inW
							wRow := wBase + ky*a.KernelW
							for kx := 0; kx < a.KernelW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= inW {
									continue
								}
								acc += xv[xRow+ix] * wv[wRow+kx]
							}
						}
					}
					out.F32[((b*outC+oc)*outH+oy)*outW+ox] = acc
				}
			}
		}
	}
	return out, nil
}

// dense implements a fully connected layer on [N, features] inputs.
func dense(n *nn.Node, x *tensor.Tensor) (*tensor.Tensor, error) {
	if len(x.Shape) != 2 {
		return nil, fmt.Errorf("dense wants [N,features], got %v", x.Shape)
	}
	w := n.Weight(nn.WeightKey)
	if w == nil {
		return nil, fmt.Errorf("dense has no weights")
	}
	batch, in := x.Shape[0], x.Shape[1]
	outF := n.Attrs.OutC
	want := tensor.Shape{outF, in}
	if !w.Shape.Equal(want) {
		return nil, fmt.Errorf("weight shape %v, want %v", w.Shape, want)
	}
	xv := x.Float32s()
	wv := w.Float32s()
	var bias []float32
	if bt := n.Weight(nn.BiasKey); bt != nil {
		bias = bt.Float32s()
	}
	out := tensor.New(tensor.FP32, batch, outF)
	for b := 0; b < batch; b++ {
		xRow := xv[b*in : (b+1)*in]
		for o := 0; o < outF; o++ {
			wRow := wv[o*in : (o+1)*in]
			var acc float32
			if bias != nil {
				acc = bias[o]
			}
			for i, xi := range xRow {
				acc += xi * wRow[i]
			}
			out.F32[b*outF+o] = acc
		}
	}
	return out, nil
}

// batchNorm applies inference-mode normalization per channel:
// y = gamma * (x - mean) / sqrt(var + eps) + beta.
func batchNorm(n *nn.Node, x *tensor.Tensor) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("batchnorm wants NCHW, got %v", x.Shape)
	}
	c := x.Shape[1]
	scale, shift, err := bnScaleShift(n, c)
	if err != nil {
		return nil, err
	}

	xv := x.Float32s()
	out := tensor.New(tensor.FP32, x.Shape...)
	hw := x.Shape[2] * x.Shape[3]
	for b := 0; b < x.Shape[0]; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			s, sh := scale[ch], shift[ch]
			for i := 0; i < hw; i++ {
				out.F32[base+i] = xv[base+i]*s + sh
			}
		}
	}
	return out, nil
}

// pool implements max or average pooling with zero padding excluded from
// averages (count_include_pad = false).
func pool(n *nn.Node, x *tensor.Tensor, isMax bool) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("pool wants NCHW, got %v", x.Shape)
	}
	a := n.Attrs
	batch, c, inH, inW := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := (inH+2*a.PadH-a.KernelH)/a.StrideH + 1
	outW := (inW+2*a.PadW-a.KernelW)/a.StrideW + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("pool output collapses to %dx%d", outH, outW)
	}
	xv := x.Float32s()
	out := tensor.New(tensor.FP32, batch, c, outH, outW)
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * inH * inW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					iy0 := oy*a.StrideH - a.PadH
					ix0 := ox*a.StrideW - a.PadW
					var acc float32
					count := 0
					first := true
					for ky := 0; ky < a.KernelH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < a.KernelW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							v := xv[base+iy*inW+ix]
							if isMax {
								if first || v > acc {
									acc = v
									first = false
								}
							} else {
								acc += v
								count++
							}
						}
					}
					if !isMax && count > 0 {
						acc /= float32(count)
					}
					out.F32[((b*c+ch)*outH+oy)*outW+ox] = acc
				}
			}
		}
	}
	return out, nil
}

// globalAvgPool reduces spatial dimensions to 1×1.
func globalAvgPool(x *tensor.Tensor) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("global pool wants NCHW, got %v", x.Shape)
	}
	batch, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	xv := x.Float32s()
	out := tensor.New(tensor.FP32, batch, c, 1, 1)
	hw := h * w
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			var sum float64
			for i := 0; i < hw; i++ {
				sum += float64(xv[base+i])
			}
			out.F32[b*c+ch] = float32(sum / float64(hw))
		}
	}
	return out, nil
}

// accumulate adds or multiplies y into out, supporting the [N,C,1,1]
// channel broadcast used by squeeze-excite blocks.
func accumulate(out, y *tensor.Tensor, mul bool) error {
	yv := y.Float32s()
	if y.Shape.Equal(out.Shape) {
		for i := range out.F32 {
			if mul {
				out.F32[i] *= yv[i]
			} else {
				out.F32[i] += yv[i]
			}
		}
		return nil
	}
	// Channel broadcast.
	if len(out.Shape) == 4 && len(y.Shape) == 4 &&
		y.Shape[0] == out.Shape[0] && y.Shape[1] == out.Shape[1] &&
		y.Shape[2] == 1 && y.Shape[3] == 1 {
		c := out.Shape[1]
		hw := out.Shape[2] * out.Shape[3]
		for b := 0; b < out.Shape[0]; b++ {
			for ch := 0; ch < c; ch++ {
				f := yv[b*c+ch]
				base := (b*c + ch) * hw
				for i := 0; i < hw; i++ {
					if mul {
						out.F32[base+i] *= f
					} else {
						out.F32[base+i] += f
					}
				}
			}
		}
		return nil
	}
	return fmt.Errorf("%w: %v vs %v", tensor.ErrShape, out.Shape, y.Shape)
}

// concatChannels concatenates NCHW tensors along the channel axis.
func concatChannels(ts []*tensor.Tensor) (*tensor.Tensor, error) {
	first := ts[0]
	if len(first.Shape) != 4 {
		return nil, fmt.Errorf("concat wants NCHW, got %v", first.Shape)
	}
	batch, h, w := first.Shape[0], first.Shape[2], first.Shape[3]
	totalC := 0
	for _, t := range ts {
		if len(t.Shape) != 4 || t.Shape[0] != batch || t.Shape[2] != h || t.Shape[3] != w {
			return nil, fmt.Errorf("%w: concat input %v vs %v", tensor.ErrShape, t.Shape, first.Shape)
		}
		totalC += t.Shape[1]
	}
	out := tensor.New(tensor.FP32, batch, totalC, h, w)
	hw := h * w
	for b := 0; b < batch; b++ {
		cOff := 0
		for _, t := range ts {
			tv := t.Float32s()
			c := t.Shape[1]
			src := tv[b*c*hw : (b+1)*c*hw]
			dst := out.F32[(b*totalC+cOff)*hw : (b*totalC+cOff+c)*hw]
			copy(dst, src)
			cOff += c
		}
	}
	return out, nil
}

// upsample performs nearest-neighbour upsampling by an integer factor.
func upsample(x *tensor.Tensor, scale int) (*tensor.Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("upsample wants NCHW, got %v", x.Shape)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("upsample scale %d", scale)
	}
	batch, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	xv := x.Float32s()
	out := tensor.New(tensor.FP32, batch, c, h*scale, w*scale)
	oh, ow := h*scale, w*scale
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			inBase := (b*c + ch) * h * w
			outBase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				iy := oy / scale
				for ox := 0; ox < ow; ox++ {
					out.F32[outBase+oy*ow+ox] = xv[inBase+iy*w+ox/scale]
				}
			}
		}
	}
	return out, nil
}

// softmaxRows applies softmax along the last axis of a [N, features]
// tensor (rank-4 inputs are treated per channel vector at each pixel
// only when flattened; detection heads use raw logits instead).
func softmaxRows(x *tensor.Tensor) (*tensor.Tensor, error) {
	if len(x.Shape) != 2 {
		return nil, fmt.Errorf("softmax wants [N,features], got %v", x.Shape)
	}
	batch, f := x.Shape[0], x.Shape[1]
	xv := x.Float32s()
	out := tensor.New(tensor.FP32, batch, f)
	for b := 0; b < batch; b++ {
		row, err := tensor.FromSlice(xv[b*f:(b+1)*f], f)
		if err != nil {
			return nil, err
		}
		sm := tensor.Softmax(row)
		copy(out.F32[b*f:(b+1)*f], sm.F32)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Compiled-engine kernels.
//
// Everything below is the Engine's kernel set: binders run once at
// compile time (resolving attributes, checking shapes and dequantizing
// FP16/INT8 weights to FP32), and the returned closures operate on raw
// float32 buffers whose per-sample geometry is fixed — only the batch
// dimension varies per call. Every kernel runs its whole range on the
// calling goroutine and keeps the per-element accumulation order of the
// interpreter above, so engine results are bitwise identical to the
// reference semantics. The ops that only move values (max pool, concat,
// upsample, copy) have one body, generic over the element type, that
// the INT8 executor binds over its codes too.
// ---------------------------------------------------------------------------

// epilogue is a producer's fused element-wise tail: an optional leading
// per-channel affine (a folded batch-norm) followed by an activation
// tail. The affine and a tail of one ReLU, h-swish or h-sigmoid are one
// pass of tensor.EpilogueTileF32 over the producer's tile; exotic chains
// follow it with composed closures. Applied to the same float32 the
// unfused steps would read, it yields bitwise-identical results.
type epilogue struct {
	// scale/shift is the leading per-channel affine; nil when the chain
	// starts with an activation.
	scale, shift []float32
	// act is a tail of exactly one activation with a vector body.
	act tensor.Act
	// fn is a channel-independent activation tail (possibly several
	// activations composed), act's scalar form included; nil when there
	// is no tail or it is per-channel.
	fn func(float32) float32
	// fnCh is the rare per-channel tail (a second batch-norm somewhere
	// in the chain); nil otherwise.
	fnCh []func(float32) float32
}

// tile moves a rows x cols tile from src (row stride lds) to dst (row
// stride ldd) through the epilogue while it is still cache-hot from the
// producing kernel; dst may be src. Row r is channel ch+r when chRows is
// set (the rows of a GEMM C tile) and channel ch otherwise (the rows of
// one plane). A nil epilogue is the plain copy.
func (ep *epilogue) tile(dst []float32, ldd int, src []float32, lds, rows, cols, ch int, chRows bool) {
	if ep == nil {
		tensor.EpilogueTileF32(dst, ldd, src, lds, rows, cols, nil, nil, tensor.ActNone)
		return
	}
	var scale, shift []float32
	if ep.scale != nil {
		n := 1
		if chRows {
			n = rows
		}
		scale, shift = ep.scale[ch:ch+n], ep.shift[ch:ch+n]
	}
	tensor.EpilogueTileF32(dst, ldd, src, lds, rows, cols, scale, shift, ep.act)
	if ep.act != tensor.ActNone || (ep.fn == nil && ep.fnCh == nil) {
		return
	}
	// The affine's result is the same float32 a one-pass closure would
	// feed the tail.
	for r := 0; r < rows; r++ {
		f := ep.fn
		if f == nil {
			f = ep.fnCh[ch]
		}
		if chRows {
			ch++
		}
		row := dst[r*ldd:][:cols]
		for i, v := range row {
			row[i] = f(v)
		}
	}
}

// scalar returns the epilogue for channel ch as one composed function
// (the dense and batch-norm binders precompute these per channel).
func (ep *epilogue) scalar(ch int) func(float32) float32 {
	tail := ep.fn
	if ep.fnCh != nil {
		tail = ep.fnCh[ch]
	}
	if ep.scale == nil {
		return tail
	}
	s, sh := ep.scale[ch], ep.shift[ch]
	if tail == nil {
		return func(v float32) float32 { return v*s + sh }
	}
	return func(v float32) float32 { return tail(v*s + sh) }
}

// bindKernel resolves a node to an executable kernel closure given the
// per-sample shapes of its inputs and output, plus the kernel's planned
// scratch requirement (zero for most ops; the GEMM-lowered conv/dense
// kernels declare pack and tile buffers). ep, when non-nil, is the
// fused epilogue the lowering pipeline absorbed into the producer
// (conv/dense/batch-norm), applied while the output is cache-hot.
func bindKernel(n *nn.Node, ins []tensor.Shape, out tensor.Shape, ep *epilogue) (kernelFunc[float32], scratchSpec, error) {
	if ep != nil && !fusesActivation(n.Op) {
		return nil, scratchSpec{}, fmt.Errorf("op %s cannot absorb a fused epilogue", n.Op)
	}
	switch n.Op {
	case nn.OpConv, nn.OpDepthwiseConv:
		return bindConv(n, ins[0], out, ep)
	case nn.OpDense:
		return bindDense(n, ins[0], out, ep)
	}
	var (
		kern kernelFunc[float32]
		err  error
	)
	switch n.Op {
	case nn.OpBatchNorm:
		kern, err = bindBatchNorm(n, ins[0], ep)
	case nn.OpReLU, nn.OpReLU6, nn.OpLeakyReLU, nn.OpSigmoid, nn.OpTanh,
		nn.OpHSwish, nn.OpHSigmoid, nn.OpMish:
		kern, err = bindActivation(n)
	case nn.OpMaxPool:
		var mp PlanMaxPool
		if mp, err = poolGeom(n, ins[0], out); err == nil {
			kern = bindMaxPool(&mp, float32(0))
		}
	case nn.OpAvgPool:
		kern, err = bindAvgPool(n, ins[0], out)
	case nn.OpGlobalAvgPool:
		kern, err = bindGlobalAvgPool(ins[0])
	case nn.OpAdd, nn.OpMul:
		kern, err = bindAccumulate(n, ins, out)
	case nn.OpConcat:
		kern, err = bindConcat[float32](ins, out)
	case nn.OpUpsample:
		kern, err = bindUpsample[float32](n, ins[0], out)
	case nn.OpSoftmax:
		kern, err = bindSoftmax(ins[0])
	case nn.OpFlatten, nn.OpIdentity:
		kern = bindCopy[float32]()
	default:
		err = fmt.Errorf("unsupported op %s", n.Op)
	}
	return kern, scratchSpec{}, err
}

// fusesActivation reports the ops whose FP32 binders accept a fused
// epilogue (the kernel-side mirror of ir.IsFusableProducer).
func fusesActivation(op nn.OpType) bool {
	switch op {
	case nn.OpConv, nn.OpDepthwiseConv, nn.OpDense, nn.OpBatchNorm:
		return true
	}
	return false
}

// convGeom is the compile-time geometry of one convolution.
type convGeom struct {
	inC, inH, inW    int
	outC, outH, outW int
	kh, kw           int
	sh, sw           int
	ph, pw           int
	icPerG, ocPerG   int
}

// convGeometry derives the compile-time geometry of a conv node and
// validates its weight tensor, shared by the FP32 and quantized binders.
func convGeometry(n *nn.Node, in, out tensor.Shape) (convGeom, *tensor.Tensor, error) {
	if len(in) != 3 {
		return convGeom{}, nil, fmt.Errorf("conv wants NCHW, got per-sample %v", in)
	}
	w := n.Weight(nn.WeightKey)
	if w == nil {
		return convGeom{}, nil, fmt.Errorf("conv has no weights (built with Weights: false?)")
	}
	a := n.Attrs
	inC, inH, inW := in[0], in[1], in[2]
	groups := a.Groups
	if groups <= 0 {
		groups = 1
	}
	outC := a.OutC
	if n.Op == nn.OpDepthwiseConv {
		groups = inC
		if outC == 0 {
			outC = inC
		}
	}
	if inC%groups != 0 || outC%groups != 0 {
		return convGeom{}, nil, fmt.Errorf("channels %d/outC %d not divisible by groups %d", inC, outC, groups)
	}
	wantW := tensor.Shape{outC, inC / groups, a.KernelH, a.KernelW}
	if !w.Shape.Equal(wantW) {
		return convGeom{}, nil, fmt.Errorf("weight shape %v, want %v", w.Shape, wantW)
	}
	return convGeom{
		inC: inC, inH: inH, inW: inW,
		outC: outC, outH: out[1], outW: out[2],
		kh: a.KernelH, kw: a.KernelW,
		sh: a.StrideH, sw: a.StrideW,
		ph: a.PadH, pw: a.PadW,
		icPerG: inC / groups, ocPerG: outC / groups,
	}, w, nil
}

func bindConv(n *nn.Node, in, out tensor.Shape, ep *epilogue) (kernelFunc[float32], scratchSpec, error) {
	g, w, err := convGeometry(n, in, out)
	if err != nil {
		return nil, scratchSpec{}, err
	}
	var bias []float32
	if bt := n.Weight(nn.BiasKey); bt != nil {
		bias = bt.Float32s()
	}
	// A dense-shaped conv (squeeze-excite's) is a dense layer: the same
	// [out, in] weights, bias seed and k order, on the dense core instead
	// of a one-pixel GEMM tile.
	if g.dense() {
		kern, spec := bindDenseCore(weightValues(w), bias, g.inC, g.outC, ep)
		return kern, spec, nil
	}
	// Convolutions with a real channel reduction lower onto the packed
	// GEMM micro-kernels (gemmconv.go): register-blocked tiles with the
	// im2col gather fused into the per-tile B pack. Shallow reductions
	// (depthwise above all) take the direct plane form below, which
	// streams the input exactly once. A padded tile holds zeros for the
	// border taps, so a padded conv takes it only where that is exact
	// (convPadExact) and otherwise the clipped loop.
	if convGemmEligible(g) && (g.ph == 0 && g.pw == 0 || convPadExact(weightValues(w), bias)) {
		kern, spec := bindConvGemm(g, w, bias, ep)
		return kern, spec, nil
	}
	wv := w.Float32s() // dequantized once, at compile time
	px := g.outH * g.outW
	// Three plane forms. A 1x1 stride-1 unpadded conv has no border: its
	// input planes are the tap windows as they lie. Otherwise the padded
	// plane form (convPad) applies when a zero border is bitwise
	// invisible for these weights; a non-finite tap or a -0 bias keeps
	// the clipped loop, which also takes the padded GEMM convs the check
	// above refuses.
	pointwise := g.pointwise()
	var pd *convPad
	var spec scratchSpec
	switch {
	case pointwise:
		pd = pointwiseConvPad(&g)
	case convPadExact(wv, bias):
		pd = newConvPad(&g)
		spec.f32 = pd.inLen + pd.accLen
	}
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		xv := srcs[0]
		var xp, acc []float32
		if spec.f32 > 0 {
			ws := rc.f32Scratch(spec.f32)
			xp, acc = ws[:pd.inLen], ws[pd.inLen:]
			clear(xp) // the border and slack stay zero across this call's planes
		}
		for p := 0; p < rc.batch*g.outC; p++ {
			b, oc := p/g.outC, p%g.outC
			var b0 float32
			if bias != nil {
				b0 = bias[oc]
			}
			out := dst[p*px : (p+1)*px]
			switch {
			case pointwise:
				convPlanePointwise(out, xv, wv, b0, &g, pd, b, oc)
			case pd != nil:
				convPlanePadded(out, xv, wv, b0, ep, &g, pd, xp, acc, b, oc)
				continue // the plane left its accumulator through the epilogue
			default:
				convPlaneClipped(out, xv, wv, b0, &g, b, oc)
			}
			if ep != nil {
				ep.tile(out, px, out, px, 1, px, oc, false)
			}
		}
		return nil
	}, spec, nil
}

// dense reports a 1x1 kernel over an unpadded 1x1 plane with one
// group: each output channel is a dot product of all the input channels,
// a dense layer from inC to outC features.
func (g *convGeom) dense() bool {
	return g.kh == 1 && g.kw == 1 && g.inH == 1 && g.inW == 1 && g.ph == 0 && g.pw == 0 && g.icPerG == g.inC
}

// pointwise reports the 1x1/stride-1/no-pad geometry, whose input and
// output planes are contiguous and need no border.
func (g *convGeom) pointwise() bool {
	return g.kh == 1 && g.kw == 1 && g.sh == 1 && g.sw == 1 && g.ph == 0 && g.pw == 0
}

// convPad is the bind-time layout of the FP32 plane forms, in the int32
// offsets their kernels take. The input plane is copied once into
// scratch with a zero border, split into sh*sw phase planes (phase
// (py, px) holds the padded rows r = py mod sh and columns c = px mod
// sw, so a strided conv reads every phase at unit stride), all with row
// stride sp. The accumulator plane
// uses the same row stride, which makes tap (ky, kx) one flat window of
// accLen elements: accumulator index a = oy*sp+ox reads phase (ky%sh,
// kx%sw) at a + tapOff. The sp-outW columns between accumulator rows
// compute values nobody reads.
type convPad struct {
	sp     int     // row stride of phase planes and of the accumulator plane
	inLen  int     // all sh*sw phase planes, border and read slack included
	accLen int     // accumulator elements, rounded up to whole vectors
	tapOff []int32 // per (ky, kx): offset of the tap's window in the phase planes
	rowOff []int32 // per input row: offset of its phase-plane row
	// The column phases within a row: offE places the even input columns
	// (every column at stride 1) and offO, at stride 2, the odd ones;
	// cols serves the strides above 2.
	offE, offO int
	cols       []convPadCols
}

// convPadCols places the columns of one column phase: n elements of an
// input row, every sw-th one from ix0, land off past the row's rowOff.
type convPadCols struct{ off, ix0, n int }

func newConvPad(g *convGeom) *convPad {
	sp := (g.inW + 2*g.pw + g.sw - 1) / g.sw
	rows := (g.inH + 2*g.ph + g.sh - 1) / g.sh
	accLen := ((g.outH-1)*sp + g.outW + 15) &^ 15
	// The deepest tap window starts (kh-1)/sh rows and (kw-1)/sw columns
	// in; the slack keeps its rounded-up tail inside the plane.
	plane := max(rows*sp, accLen+(g.kh-1)/g.sh*sp+(g.kw-1)/g.sw)
	pd := &convPad{
		sp: sp, inLen: g.sh * g.sw * plane, accLen: accLen,
		tapOff: make([]int32, g.kh*g.kw), rowOff: make([]int32, g.inH), cols: make([]convPadCols, g.sw),
	}
	for ky := 0; ky < g.kh; ky++ {
		for kx := 0; kx < g.kw; kx++ {
			pd.tapOff[ky*g.kw+kx] = int32((ky%g.sh*g.sw+kx%g.sw)*plane + ky/g.sh*sp + kx/g.sw)
		}
	}
	for iy := range pd.rowOff {
		r := iy + g.ph
		pd.rowOff[iy] = int32(r%g.sh*g.sw*plane + r/g.sh*sp)
	}
	for px := range pd.cols {
		ix0 := ((px-g.pw)%g.sw + g.sw) % g.sw
		// n is 0 when the plane is too narrow to hold a column of this phase.
		pd.cols[px] = convPadCols{off: px*plane + (g.pw+ix0)/g.sw, ix0: ix0, n: max(g.inW-ix0+g.sw-1, 0) / g.sw}
	}
	pd.offE = pd.cols[0].off
	if g.sw == 2 {
		if pd.offO = pd.cols[1].off; pd.cols[0].ix0 != 0 {
			pd.offE, pd.offO = pd.offO, pd.offE
		}
	}
	return pd
}

// pointwiseConvPad is the layout of the pointwise plane form: the
// group's input planes are the taps, one per input channel, read where
// they lie.
func pointwiseConvPad(g *convGeom) *convPad {
	pd := &convPad{tapOff: make([]int32, g.icPerG)}
	for ic := range pd.tapOff {
		pd.tapOff[ic] = int32(ic * g.inH * g.inW)
	}
	return pd
}

// scatterPadRow spreads one input row over the column phases of a
// conv of stride above 2 (1 and 2 have copy-in kernels of their own):
// phase c takes every sw-th column from its ix0. xp starts at the row's
// rowOff.
func scatterPadRow(pd *convPad, xp, row []float32, sw int) {
	for _, c := range pd.cols {
		d := xp[c.off:][:c.n]
		ix := c.ix0
		for i := range d {
			d[i] = row[ix]
			ix += sw
		}
	}
}

// convPadExact reports whether a zero border is bitwise invisible for
// these weights. The interpreter skips an out-of-bounds tap where the
// padded form adds w*0. That product is ±0 unless w is non-finite, and
// acc + (±0) is acc bit for bit unless acc is -0, which under
// round-to-nearest needs a -0 bias (a sum is -0 only when both terms
// are). Both are facts about the weights alone, so inputs — NaN and Inf
// included — never matter.
func convPadExact(wv, bias []float32) bool {
	for _, w := range wv {
		if math.IsInf(float64(w), 0) || w != w {
			return false
		}
	}
	for _, b := range bias {
		if b == 0 && math.Signbit(float64(b)) {
			return false
		}
	}
	return true
}

// convPlanePadded computes one (batch, output-channel) plane in the
// padded plane form, three kernel calls: per input channel, one copy-in of the plane into the phase planes of xp
// (whose border is already zero; a stride above 2 scatters row by row)
// and one tensor.ConvTapsF32 over all its taps into acc, seeded with
// the bias on the first channel and from the plane after it; then one
// tile epilogue that compacts the valid columns into out. Every output
// element receives its taps in (ic, ky, kx) order, the interpreter's
// order, plus w*0 for the taps the interpreter skips.
func convPlanePadded(out, xv, wv []float32, b0 float32, ep *epilogue, g *convGeom, pd *convPad, xp, acc []float32, b, oc int) {
	icBase := oc / g.ocPerG * g.icPerG
	hw, taps := g.inH*g.inW, g.kh*g.kw
	for ic := 0; ic < g.icPerG; ic++ {
		plane := xv[(b*g.inC+icBase+ic)*hw:][:hw]
		switch g.sw {
		case 1:
			tensor.PadRowsF32(xp[pd.offE:], pd.rowOff, plane, g.inW)
		case 2:
			tensor.PadSplit2RowsF32(xp, pd.rowOff, pd.offE, pd.offO, plane, g.inW)
		default:
			for iy, off := range pd.rowOff {
				scatterPadRow(pd, xp[off:], plane[iy*g.inW:(iy+1)*g.inW], g.sw)
			}
		}
		tensor.ConvTapsF32(acc, xp, pd.tapOff, wv[(oc*g.icPerG+ic)*taps:][:taps], b0, ic > 0)
	}
	ep.tile(out, g.outW, acc, pd.sp, g.outH, g.outW, oc, false)
}

// convPlaneClipped computes one (batch, output-channel) plane for the
// convolutions convPadExact refuses: the plane is initialized with the
// bias, then every kernel tap (ic, ky, kx) accumulates into the output
// columns and rows whose source stays in bounds, skipping padding like
// the interpreter does.
func convPlaneClipped(plane, xv, wv []float32, b0 float32, g *convGeom, b, oc int) {
	icBase := oc / g.ocPerG * g.icPerG
	for i := range plane {
		plane[i] = b0
	}
	for ic := 0; ic < g.icPerG; ic++ {
		xBase := (b*g.inC + icBase + ic) * g.inH * g.inW
		wBase := (oc*g.icPerG + ic) * g.kh * g.kw
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				w := wv[wBase+ky*g.kw+kx]
				// Output columns whose input column ox*sw-pw+kx stays in
				// bounds; clipping hoisted out of the row loops.
				oxLo := 0
				if g.pw > kx {
					oxLo = (g.pw - kx + g.sw - 1) / g.sw
				}
				oxHi := 0
				if maxIx := g.inW - 1 + g.pw - kx; maxIx >= 0 {
					oxHi = min(maxIx/g.sw+1, g.outW)
				}
				for oy := 0; oy < g.outH; oy++ {
					iy := oy*g.sh - g.ph + ky
					if iy < 0 || iy >= g.inH {
						continue
					}
					xRow := xv[xBase+iy*g.inW : xBase+(iy+1)*g.inW]
					oRow := plane[oy*g.outW : (oy+1)*g.outW]
					ix := oxLo*g.sw - g.pw + kx
					for ox := oxLo; ox < oxHi; ox++ {
						oRow[ox] += w * xRow[ix]
						ix += g.sw
					}
				}
			}
		}
	}
}

// convPlanePointwise is the 1x1/stride-1/no-pad plane: input and
// output planes are contiguous and need no border, so the group's input
// channels are the taps of one tensor.ConvTapsF32 straight over the
// input, in ascending channel order as in the general path.
func convPlanePointwise(out, xv, wv []float32, b0 float32, g *convGeom, pd *convPad, b, oc int) {
	hw := g.inH * g.inW
	x := xv[(b*g.inC+oc/g.ocPerG*g.icPerG)*hw:][:g.icPerG*hw]
	tensor.ConvTapsF32(out, x, pd.tapOff, wv[oc*g.icPerG:(oc+1)*g.icPerG], b0, false)
}

func bindDense(n *nn.Node, in, out tensor.Shape, ep *epilogue) (kernelFunc[float32], scratchSpec, error) {
	if len(in) != 1 {
		return nil, scratchSpec{}, fmt.Errorf("dense wants [N,features], got per-sample %v", in)
	}
	w := n.Weight(nn.WeightKey)
	if w == nil {
		return nil, scratchSpec{}, fmt.Errorf("dense has no weights")
	}
	inF, outF := in[0], out[0]
	want := tensor.Shape{outF, inF}
	if !w.Shape.Equal(want) {
		return nil, scratchSpec{}, fmt.Errorf("weight shape %v, want %v", w.Shape, want)
	}
	var bias []float32
	if bt := n.Weight(nn.BiasKey); bt != nil {
		bias = bt.Float32s()
	}
	kern, spec := bindDenseCore(weightValues(w), bias, inF, outF, ep)
	return kern, spec, nil
}

// bindDenseCore binds the dense kernel over a row-major [outF, inF]
// weight matrix, shared by bindDense and the dense-shaped conv.
func bindDenseCore(w, bias []float32, inF, outF int, ep *epilogue) (kernelFunc[float32], scratchSpec) {
	// GEMM lowering with the vector lanes along the output features:
	// M = samples, N = out features, K = in features. The weights are
	// the B operand, packed once at bind time into NR-wide tiles; the
	// activation rows are the A operand, staged row-major per call and
	// run through the kernel, which multiplies only the rows a panel
	// has. Every lane is live at any batch size and a short batch
	// costs its own rows, batch 1 included, and C comes out sample-major,
	// which is dst's layout. The kernels seed a tile from a per-row bias,
	// and here the bias runs along N, so it enters as one extra leading K
	// step instead: a one ahead of each staged row against a row of
	// biases in each B tile, on a seed of -0. That step computes
	// -0 + 1*bias, which is the bias bit for bit (a +0 seed would turn a
	// -0 bias into +0), and every output then continues += x*w in k
	// order: the interpreter's chain, on every tier's own kernel.
	kern := tensor.PickGemmF32MaxWidth(max(outF, 16))
	mr, nr := kern.MR, kern.NR
	nt := (outF + nr - 1) / nr
	lda := inF + 1
	tile := lda * nr
	bpack := packDenseTiles(w, bias, inF, outF, nr)
	seed := make([]float32, mr)
	for i := range seed {
		seed[i] = float32(math.Copysign(0, -1))
	}
	// An epilogue with a per-feature stage walks the row through scalar
	// closures; a channel-independent tail (ReLU, h-swish) maps over the
	// whole C tile at once.
	var fs []func(float32) float32
	if ep != nil && (ep.scale != nil || ep.fnCh != nil) {
		fs = make([]func(float32) float32, outF)
		for o := range fs {
			fs[o] = ep.scalar(o)
		}
	}
	scratch := mr*lda + mr*nr
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		xv := srcs[0]
		ws := rc.f32Scratch(scratch)
		arows, ctile := ws[:mr*lda], ws[mr*lda:]
		for i0 := 0; i0 < rc.batch; i0 += mr {
			mh := min(rc.batch-i0, mr)
			for i := 0; i < mh; i++ {
				arows[i*lda] = 1
				copy(arows[i*lda+1:(i+1)*lda], xv[(i0+i)*inF:])
			}
			for t := 0; t < nt; t++ {
				o0 := t * nr
				jw := min(outF-o0, nr)
				kern.Run(arows, lda, mh, bpack[t*tile:(t+1)*tile], nr, lda, seed, ctile, nr)
				if fs == nil {
					ep.tile(dst[i0*outF+o0:], outF, ctile, nr, mh, jw, 0, false)
					continue
				}
				for i := 0; i < mh; i++ {
					row := dst[(i0+i)*outF+o0:][:jw]
					for j, v := range ctile[i*nr:][:jw] {
						row[j] = fs[o0+j](v)
					}
				}
			}
		}
		return nil
	}, scratchSpec{f32: scratch}
}

// weightValues is a weight tensor's values for a bind-time reader that
// packs or quantizes them once and keeps nothing: FP32 storage as it
// lies (for an artifact's weights, the file image), anything else
// dequantized.
func weightValues(w *tensor.Tensor) []float32 {
	if w.DType == tensor.FP32 && len(w.F32) == w.NumElements() {
		return w.F32
	}
	return w.Float32s()
}

// packDenseTiles lays a row-major [outF, inF] weight matrix out as the
// B tiles of the dense GEMM: per tile of nr output features, inF+1 rows
// of nr columns, k-major. Row 0 holds the biases (zero without them),
// row 1+k input feature k, and columns past outF stay zero. Each weight
// row is read once, in order, into its tile column.
func packDenseTiles(w, bias []float32, inF, outF, nr int) []float32 {
	tile := (inF + 1) * nr
	tiles := make([]float32, (outF+nr-1)/nr*tile)
	for o, b := range bias {
		tiles[o/nr*tile+o%nr] = b
	}
	for o := 0; o < outF; o++ {
		col := tiles[o/nr*tile+nr+o%nr:]
		for k, v := range w[o*inF : (o+1)*inF] {
			col[k*nr] = v
		}
	}
	return tiles
}

// bnScaleShift resolves a batch-norm node's per-channel affine over c
// channels. The lowering pipeline's constant-folding pass materializes
// it as derived weights (ir.FoldScaleKey/FoldShiftKey); nodes bound
// outside the pipeline fold on the spot through the same
// nn.FoldBatchNormStats arithmetic, so both routes are bitwise
// identical. Either way both slices hold exactly c elements: a loaded
// graph's node may carry derived weights of its own.
func bnScaleShift(n *nn.Node, c int) (scale, shift []float32, err error) {
	if st, sh := n.Weight(ir.FoldScaleKey), n.Weight(ir.FoldShiftKey); st != nil && sh != nil {
		if st.NumElements() != c || sh.NumElements() != c {
			return nil, nil, fmt.Errorf("batchnorm has %d folded scales and %d shifts for %d channels", st.NumElements(), sh.NumElements(), c)
		}
		return st.Float32s(), sh.Float32s(), nil
	}
	gamma, beta := n.Weight(nn.GammaKey), n.Weight(nn.BetaKey)
	mean, variance := n.Weight(nn.MeanKey), n.Weight(nn.VarKey)
	if gamma == nil || beta == nil || mean == nil || variance == nil {
		return nil, nil, fmt.Errorf("batchnorm missing statistics")
	}
	return nn.FoldBatchNormStats(c,
		gamma.Float32s(), beta.Float32s(), mean.Float32s(), variance.Float32s(), n.Attrs.Eps)
}

// bindBatchNorm runs its affine and the fused tail as one tile
// epilogue per plane. A tail that holds a second affine composes into
// per-channel closures.
func bindBatchNorm(n *nn.Node, in tensor.Shape, ep *epilogue) (kernelFunc[float32], error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("batchnorm wants NCHW, got per-sample %v", in)
	}
	c := in[0]
	scale, shift, err := bnScaleShift(n, c)
	if err != nil {
		return nil, err
	}
	bn := &epilogue{scale: scale, shift: shift}
	switch {
	case ep != nil && ep.scale != nil:
		bn.fnCh = make([]func(float32) float32, c)
		for ch := range bn.fnCh {
			bn.fnCh[ch] = ep.scalar(ch)
		}
	case ep != nil:
		bn.act, bn.fn, bn.fnCh = ep.act, ep.fn, ep.fnCh
	}
	hw := in[1] * in[2]
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		xv := srcs[0]
		for p := 0; p < rc.batch*c; p++ {
			bn.tile(dst[p*hw:], hw, xv[p*hw:], hw, 1, hw, p%c, false)
		}
		return nil
	}, nil
}

// activationFn resolves an activation node to its scalar function,
// shared by the FP32 binder and the quantized LUT builder.
func activationFn(n *nn.Node) (func(float32) float32, error) {
	var f func(float32) float32
	switch n.Op {
	case nn.OpReLU:
		f = func(v float32) float32 {
			if v < 0 {
				return 0
			}
			return v
		}
	case nn.OpReLU6:
		f = relu6
	case nn.OpLeakyReLU:
		alpha := n.Attrs.Alpha
		if alpha == 0 {
			alpha = 0.1
		}
		f = func(v float32) float32 {
			if v < 0 {
				return alpha * v
			}
			return v
		}
	case nn.OpSigmoid:
		f = sigmoid
	case nn.OpTanh:
		f = func(v float32) float32 { return float32(math.Tanh(float64(v))) }
	case nn.OpHSwish:
		f = func(v float32) float32 { return v * relu6(v+3) / 6 }
	case nn.OpHSigmoid:
		f = func(v float32) float32 { return relu6(v+3) / 6 }
	case nn.OpMish:
		f = func(v float32) float32 {
			sp := math.Log1p(math.Exp(float64(v))) // softplus
			return float32(float64(v) * math.Tanh(sp))
		}
	default:
		return nil, fmt.Errorf("unsupported activation %s", n.Op)
	}
	return f, nil
}

// vecAct returns the tensor.Act of an activation whose tile epilogue
// has a vector body — bitwise the scalar function activationFn returns
// — or ActNone.
func vecAct(op nn.OpType) tensor.Act {
	switch op {
	case nn.OpReLU:
		return tensor.ActReLU
	case nn.OpHSwish:
		return tensor.ActHSwish
	case nn.OpHSigmoid:
		return tensor.ActHSigmoid
	}
	return tensor.ActNone
}

func bindActivation(n *nn.Node) (kernelFunc[float32], error) {
	f, err := activationFn(n)
	if err != nil {
		return nil, err
	}
	act := vecAct(n.Op)
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		x := srcs[0][:len(dst)]
		out := dst[:len(x)]
		if act != tensor.ActNone {
			tensor.EpilogueTileF32(out, len(x), x, len(x), 1, len(x), nil, nil, act)
			return nil
		}
		for i, v := range x {
			out[i] = f(v)
		}
		return nil
	}, nil
}

// poolGeom is a pooling node's window geometry in PlanMaxPool's fields
// (Empty and Recode unset), for the pool binders of both executors.
func poolGeom(n *nn.Node, in, out tensor.Shape) (PlanMaxPool, error) {
	if len(in) != 3 {
		return PlanMaxPool{}, fmt.Errorf("pool wants NCHW, got per-sample %v", in)
	}
	a := n.Attrs
	return PlanMaxPool{
		C: in[0], InH: in[1], InW: in[2], OutH: out[1], OutW: out[2],
		KH: a.KernelH, KW: a.KernelW, SH: a.StrideH, SW: a.StrideW, PH: a.PadH, PW: a.PadW,
	}, nil
}

// poolWindow clips output position o's window along one axis of n
// inputs: the window starts at input i0 and its in-bounds taps are
// lo..hi-1 (none when hi == lo).
func poolWindow(o, stride, pad, k, n int) (i0, lo, hi int) {
	i0 = o*stride - pad
	lo = max(-i0, 0)
	return i0, lo, max(min(k, n-i0), lo)
}

// bindMaxPool binds the window max over every plane, for float32 values
// and int8 codes alike (the affine map is monotone, so the max of codes
// is the code of the max): a window with no in-bounds tap yields empty.
func bindMaxPool[T float32 | int8](geom *PlanMaxPool, empty T) kernelFunc[T] {
	mp := *geom // the kernel reads the geometry from its own copy
	return func(rc *runCtx, dst []T, srcs [][]T) error {
		xv := srcs[0]
		for p := 0; p < rc.batch*mp.C; p++ {
			base := p * mp.InH * mp.InW
			outBase := p * mp.OutH * mp.OutW
			for oy := 0; oy < mp.OutH; oy++ {
				iy0, kyLo, kyHi := poolWindow(oy, mp.SH, mp.PH, mp.KH, mp.InH)
				for ox := 0; ox < mp.OutW; ox++ {
					ix0, kxLo, kxHi := poolWindow(ox, mp.SW, mp.PW, mp.KW, mp.InW)
					acc, first := empty, true
					for ky := kyLo; ky < kyHi; ky++ {
						row := base + (iy0+ky)*mp.InW + ix0
						for kx := kxLo; kx < kxHi; kx++ {
							if v := xv[row+kx]; first || v > acc {
								acc, first = v, false
							}
						}
					}
					dst[outBase+oy*mp.OutW+ox] = acc
				}
			}
		}
		return nil
	}
}

// bindAvgPool averages each window's in-bounds taps (count_include_pad
// = false).
func bindAvgPool(n *nn.Node, in, out tensor.Shape) (kernelFunc[float32], error) {
	mp, err := poolGeom(n, in, out)
	if err != nil {
		return nil, err
	}
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		xv := srcs[0]
		for p := 0; p < rc.batch*mp.C; p++ {
			base := p * mp.InH * mp.InW
			outBase := p * mp.OutH * mp.OutW
			for oy := 0; oy < mp.OutH; oy++ {
				iy0, kyLo, kyHi := poolWindow(oy, mp.SH, mp.PH, mp.KH, mp.InH)
				for ox := 0; ox < mp.OutW; ox++ {
					ix0, kxLo, kxHi := poolWindow(ox, mp.SW, mp.PW, mp.KW, mp.InW)
					var acc float32
					for ky := kyLo; ky < kyHi; ky++ {
						row := base + (iy0+ky)*mp.InW + ix0
						for kx := kxLo; kx < kxHi; kx++ {
							acc += xv[row+kx]
						}
					}
					if count := (kyHi - kyLo) * (kxHi - kxLo); count > 0 {
						acc /= float32(count)
					}
					dst[outBase+oy*mp.OutW+ox] = acc
				}
			}
		}
		return nil
	}, nil
}

func bindGlobalAvgPool(in tensor.Shape) (kernelFunc[float32], error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("global pool wants NCHW, got per-sample %v", in)
	}
	c, hw := in[0], in[1]*in[2]
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		xv := srcs[0]
		for p := 0; p < rc.batch*c; p++ {
			x := xv[p*hw : (p+1)*hw]
			var sum float64
			for _, v := range x {
				sum += float64(v)
			}
			dst[p] = float32(sum / float64(hw))
		}
		return nil
	}, nil
}

func bindAccumulate(n *nn.Node, ins []tensor.Shape, out tensor.Shape) (kernelFunc[float32], error) {
	mul := n.Op == nn.OpMul
	// Classify every extra operand at compile time: full elementwise or
	// the [N,C,1,1] channel broadcast used by squeeze-excite blocks.
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
	var c, hw int
	if len(out) == 3 {
		c, hw = out[0], out[1]*out[2]
	}
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		copy(dst, srcs[0])
		for i := 1; i < len(srcs); i++ {
			yv := srcs[i]
			if !broadcast[i] {
				y := yv[:len(dst)]
				out := dst[:len(y)]
				if mul {
					for j, v := range y {
						out[j] *= v
					}
				} else {
					for j, v := range y {
						out[j] += v
					}
				}
				continue
			}
			for p := 0; p < rc.batch*c; p++ {
				f := yv[p]
				out := dst[p*hw : (p+1)*hw]
				if mul {
					for j := range out {
						out[j] *= f
					}
				} else {
					for j := range out {
						out[j] += f
					}
				}
			}
		}
		return nil
	}, nil
}

// bindConcat copies each input into its channel range of the output.
func bindConcat[T float32 | int8](ins []tensor.Shape, out tensor.Shape) (kernelFunc[T], error) {
	if len(out) != 3 {
		return nil, fmt.Errorf("concat wants NCHW, got per-sample %v", out)
	}
	hw := out[1] * out[2]
	sizes := make([]int, len(ins)) // per-sample element counts
	for i, s := range ins {
		if len(s) != 3 || s[1] != out[1] || s[2] != out[2] {
			return nil, fmt.Errorf("%w: concat input %v vs %v", tensor.ErrShape, s, out)
		}
		sizes[i] = s[0] * hw
	}
	totalPer := out.NumElements()
	return func(rc *runCtx, dst []T, srcs [][]T) error {
		for b := 0; b < rc.batch; b++ {
			off := b * totalPer
			for i, src := range srcs {
				sz := sizes[i]
				copy(dst[off:off+sz], src[b*sz:(b+1)*sz])
				off += sz
			}
		}
		return nil
	}, nil
}

// bindUpsample repeats each element over a scale x scale block (nearest
// neighbour).
func bindUpsample[T float32 | int8](n *nn.Node, in, out tensor.Shape) (kernelFunc[T], error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("upsample wants NCHW, got per-sample %v", in)
	}
	scale := n.Attrs.Scale
	if scale <= 0 {
		return nil, fmt.Errorf("upsample scale %d", scale)
	}
	c, h, w := in[0], in[1], in[2]
	oh, ow := out[1], out[2]
	return func(rc *runCtx, dst []T, srcs [][]T) error {
		xv := srcs[0]
		for p := 0; p < rc.batch*c; p++ {
			inBase := p * h * w
			outBase := p * oh * ow
			for oy := 0; oy < oh; oy++ {
				iy := oy / scale
				inRow := inBase + iy*w
				outRow := outBase + oy*ow
				for ox := 0; ox < ow; ox++ {
					dst[outRow+ox] = xv[inRow+ox/scale]
				}
			}
		}
		return nil
	}, nil
}

func bindSoftmax(in tensor.Shape) (kernelFunc[float32], error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("softmax wants [N,features], got per-sample %v", in)
	}
	f := in[0]
	return func(rc *runCtx, dst []float32, srcs [][]float32) error {
		xv := srcs[0]
		for b := 0; b < rc.batch; b++ {
			row := xv[b*f : (b+1)*f]
			out := dst[b*f : (b+1)*f]
			out = out[:len(row)]
			// Mirrors tensor.Softmax exactly (including its
			// intermediate float32 rounding) for bit parity with the
			// interpreter.
			maxV := row[0]
			for _, v := range row[1:] {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for i, v := range row {
				e := math.Exp(float64(v - maxV))
				out[i] = float32(e)
				sum += e
			}
			for i := range out {
				out[i] = float32(float64(out[i]) / sum)
			}
		}
		return nil
	}, nil
}

func bindCopy[T float32 | int8]() kernelFunc[T] {
	return func(rc *runCtx, dst []T, srcs [][]T) error {
		copy(dst, srcs[0])
		return nil
	}
}
