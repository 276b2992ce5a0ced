package inference

import (
	"errors"
	"fmt"
	"math"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// QuantPlan is the exported description of the native INT8 execution
// plan — the same lowering newQuantEngine binds to host kernels,
// re-expressed as data so alternative backends (the RISC-V firmware
// code generator) can reproduce it instruction for instruction. Every
// constant here (weight codes, folded biases, requantizers, lookup
// tables) is computed by the exact binder helpers the native engine
// uses, so a backend that follows the step semantics below is bit-exact
// with QuantEngine by construction.
//
// The plan describes the subset of ops whose integer semantics are
// simple enough to state as data: conv/depthwise-conv, dense, the
// lookup-table family (activations, recodes, per-channel batch norm),
// max pooling, global average pooling and element-wise add. Ops the
// native engine lowers through more intricate kernels (average pooling,
// mul, concat, upsample) yield ErrPlanUnsupported — describing them
// loosely would silently break the bit-exactness contract. FP32 islands
// (ops with no integer lowering at all, e.g. softmax) are exposed as
// host closures running the identical dequantize→FP32→requantize path
// as the native engine.
type QuantPlan struct {
	// Name is the lowered module's name.
	Name string
	// Values are the plan's activation values; step operands index into
	// this slice.
	Values []QuantValue
	// InputNames/InputVals and OutputNames/OutputVals mirror the
	// module's declared interface, resolved to value indices. An output
	// value that is also an input value passes through (BindIO returns
	// the caller's tensor for it, as QuantEngine.Run does).
	InputNames  []string
	InputVals   []int
	OutputNames []string
	OutputVals  []int
	// Steps execute in order; each reads Ins and writes Out.
	Steps []QuantStep

	sig signature // the declared interface's I/O boundary, see BindIO
}

// QuantValue is one plan activation: per-sample shape and the
// calibration schema's affine mapping of its int8 codes.
type QuantValue struct {
	Name  string
	Shape tensor.Shape
	Elems int
	QP    tensor.QuantParams
}

// QuantStep is one plan operation. Exactly one of the kind fields is
// non-nil (Island counts as a kind).
type QuantStep struct {
	// Name is the originating graph node, for diagnostics.
	Name string
	// Op is the originating operator kind.
	Op nn.OpType
	// Out and Ins are value indices into QuantPlan.Values.
	Out int
	Ins []int

	Conv          *PlanConv
	Dense         *PlanDense
	LUT           *PlanLUT
	LUTPerChannel *PlanLUTPerChannel
	MaxPool       *PlanMaxPool
	GlobalAvgPool *PlanGlobalAvgPool
	Add           *PlanAdd
	// Island runs the step host-side through the identical FP32-island
	// path as the native engine (bit-exact by shared code).
	Island IslandFunc
}

// IslandFunc executes one FP32-island step over batch-major int8 code
// buffers, exactly as the native engine's wrapped fallback kernel does.
type IslandFunc func(batch int, dst []int8, srcs [][]int8) error

// ConvGeom is the exported compile-time geometry of one convolution
// (mirrors the internal convGeom).
type ConvGeom struct {
	InC, InH, InW    int
	OutC, OutH, OutW int
	KH, KW           int
	SH, SW           int
	PH, PW           int
	ICPerG, OCPerG   int
}

// PlanConv is an integer convolution: for each output position and
// channel oc,
//
//	acc = Bias[oc] + Σ_taps W[oc,tap] * (x[tap] - ZPIn)
//	code = clamp(ZPOut + Req[oc].Apply(acc))
//	code = Post[oc][code+128]            (when Post != nil)
//
// with out-of-bounds taps contributing zero to the linear term (the
// padding value is real 0, i.e. the code ZPIn). Weight codes are laid
// out [OutC][ICPerG][KH][KW], matching tensor layout NCHW.
type PlanConv struct {
	Geom        ConvGeom
	W           []int8
	Bias        []int32
	Req         []tensor.Requant
	ZPIn, ZPOut int32
	// Post is the fused-epilogue recode per output channel, nil when
	// unfused.
	Post []*[256]int8
}

// PlanDense is an integer fully-connected layer: per output feature o,
//
//	acc = Bias[o] + Σ_i W[o,i] * (x[i] - ZPIn)
//	code = clamp(ZPOut + Req[o].Apply(acc)); then Post like PlanConv.
//
// W is [OutF][InF].
type PlanDense struct {
	InF, OutF   int
	W           []int8
	Bias        []int32
	Req         []tensor.Requant
	ZPIn, ZPOut int32
	Post        []*[256]int8
}

// PlanLUT is an element-wise code table: dst[i] = Table[src[i]+128]. A
// nil Table means the mappings agree and the step is a plain copy
// (flatten/identity under equal quantization).
type PlanLUT struct {
	Table *[256]int8
}

// PlanLUTPerChannel applies one code table per channel over NCHW planes
// (the batch-norm lowering): dst in plane (c) is Tables[c][src+128].
type PlanLUTPerChannel struct {
	C, HW  int
	Tables []*[256]int8
}

// PlanMaxPool is the code-domain window max (the affine map is
// monotone): windows with no in-bounds tap produce Empty, and the
// result recodes through Recode when the output mapping differs.
type PlanMaxPool struct {
	C, InH, InW int
	OutH, OutW  int
	KH, KW      int
	SH, SW      int
	PH, PW      int
	Empty       int8
	Recode      *[256]int8
}

// PlanGlobalAvgPool averages each NCHW plane:
//
//	code = clamp(ZPOut + Req.Apply(Σ x - HW*ZPIn))
type PlanGlobalAvgPool struct {
	C, HW       int
	Req         tensor.Requant
	ZPIn, ZPOut int32
}

// PlanAdd is element-wise addition through per-operand int32 tables:
//
//	dst[i] = clamp(ZPOut + Σ_op Tables[op][src_op[i]+128])
//
// Broadcast operands are not describable (ErrPlanUnsupported).
type PlanAdd struct {
	Tables []*[256]int32
	ZPOut  int32
}

// ErrPlanUnsupported reports an op the data-level plan cannot describe
// bit-exactly; the caller should fall back to the native engine rather
// than approximate.
var ErrPlanUnsupported = errors.New("inference: op not describable as a quant plan step")

// BuildQuantPlan lowers a graph under the calibration schema through
// the shared pipeline (identical to CompileQuantized) and re-expresses
// the resulting integer plan as data. Returns ErrNotQuantizable when
// the schema does not cover the graph, and ErrPlanUnsupported (wrapped,
// with the op identity) when the module contains an op the plan cannot
// describe bit-exactly.
func BuildQuantPlan(g *nn.Graph, schema *nn.QuantSchema) (*QuantPlan, error) {
	m, err := lowerQuantized(g, schema)
	if err != nil {
		return nil, err
	}
	sc := buildScaffold(m)
	p := &QuantPlan{
		Name:        m.Name,
		InputNames:  sc.inputNames,
		InputVals:   sc.inputVals,
		OutputNames: sc.outputNames,
		OutputVals:  sc.outputVals,
		sig:         sc.signature,
	}
	p.Values = make([]QuantValue, len(sc.vals))
	for i, v := range sc.vals {
		p.Values[i] = QuantValue{Name: v.name, Shape: v.per, Elems: v.elems, QP: v.qp}
	}
	stepOf := func(q *quantOp) QuantStep {
		return QuantStep{Name: q.op.Name, Op: q.op.Kind, Out: q.out, Ins: q.ins}
	}
	err = walkQuantOps(m, &sc,
		func(q *quantOp) error {
			st := stepOf(q)
			err := describeStep(&st, q)
			if err == nil {
				p.Steps = append(p.Steps, st)
			}
			return err
		},
		func(q *quantOp) error {
			island, err := buildIslandFunc(q)
			if err == nil {
				st := stepOf(q)
				st.Island = island
				p.Steps = append(p.Steps, st)
			}
			return err
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// describeStep fills in the data form of one non-island op, mirroring
// bindQuantKernel's dispatch. Table steps map to the step output's
// schema mapping (finalQ); producers requantize to outQ.
func describeStep(step *QuantStep, q *quantOp) error {
	n, inPer, outPer, inQ, outQ, finalQ, post := q.node, q.inPer, q.outPer, q.inQ, q.outQ, q.finalQ, q.post
	if post != nil {
		switch n.Op {
		case nn.OpConv, nn.OpDepthwiseConv, nn.OpDense:
		default:
			// The native engine only fuses epilogues into conv/dense/
			// batch-norm; batch-norm composes post into its own tables
			// below, anything else with a fused chain is out of scope.
			if n.Op != nn.OpBatchNorm {
				return fmt.Errorf("%w: fused %s", ErrPlanUnsupported, n.Op)
			}
		}
	}
	switch n.Op {
	case nn.OpConv, nn.OpDepthwiseConv:
		g, w, err := convGeometry(n, inPer[0], outPer)
		if err != nil {
			return err
		}
		codes, wScales := quantizeFilter(w, g.outC)
		bias32, req := foldBias(n.Weight(nn.BiasKey), wScales, inQ[0], outQ)
		step.Conv = &PlanConv{
			Geom: ConvGeom{
				InC: g.inC, InH: g.inH, InW: g.inW,
				OutC: g.outC, OutH: g.outH, OutW: g.outW,
				KH: g.kh, KW: g.kw, SH: g.sh, SW: g.sw, PH: g.ph, PW: g.pw,
				ICPerG: g.icPerG, OCPerG: g.ocPerG,
			},
			W: codes, Bias: bias32, Req: req,
			ZPIn: inQ[0].Zero, ZPOut: outQ.Zero, Post: post,
		}
		return nil
	case nn.OpDense:
		if len(inPer[0]) != 1 {
			return fmt.Errorf("dense wants [N,features], got per-sample %v", inPer[0])
		}
		w := n.Weight(nn.WeightKey)
		if w == nil {
			return fmt.Errorf("dense has no weights")
		}
		inF, outF := inPer[0][0], outPer[0]
		want := tensor.Shape{outF, inF}
		if !w.Shape.Equal(want) {
			return fmt.Errorf("weight shape %v, want %v", w.Shape, want)
		}
		codes, wScales := quantizeFilter(w, outF)
		bias32, req := foldBias(n.Weight(nn.BiasKey), wScales, inQ[0], outQ)
		step.Dense = &PlanDense{
			InF: inF, OutF: outF, W: codes, Bias: bias32, Req: req,
			ZPIn: inQ[0].Zero, ZPOut: outQ.Zero, Post: post,
		}
		return nil
	case nn.OpBatchNorm:
		if len(inPer[0]) != 3 {
			return fmt.Errorf("batchnorm wants NCHW, got per-sample %v", inPer[0])
		}
		c := inPer[0][0]
		scale, shift, err := bnScaleShift(n, c)
		if err != nil {
			return err
		}
		if len(scale) != c {
			return fmt.Errorf("batchnorm has %d folded channels for %d channels", len(scale), c)
		}
		luts := make([]*[256]int8, c)
		for ch := 0; ch < c; ch++ {
			s, sh := scale[ch], shift[ch]
			lut := buildLUT(inQ[0], outQ, func(x float32) float32 { return x*s + sh })
			if post != nil {
				for i, code := range lut {
					lut[i] = post[ch][int(code)+128]
				}
			}
			luts[ch] = lut
		}
		step.LUTPerChannel = &PlanLUTPerChannel{C: c, HW: inPer[0][1] * inPer[0][2], Tables: luts}
		return nil
	case nn.OpReLU, nn.OpReLU6, nn.OpLeakyReLU, nn.OpSigmoid, nn.OpTanh,
		nn.OpHSwish, nn.OpHSigmoid, nn.OpMish:
		f, _, err := activationFn(n)
		if err != nil {
			return err
		}
		step.LUT = &PlanLUT{Table: buildLUT(inQ[0], finalQ, f)}
		return nil
	case nn.OpFlatten, nn.OpIdentity:
		step.LUT = &PlanLUT{}
		if !sameQuant(inQ[0], finalQ) {
			step.LUT.Table = buildLUT(inQ[0], finalQ, func(x float32) float32 { return x })
		}
		return nil
	case nn.OpMaxPool:
		if len(inPer[0]) != 3 {
			return fmt.Errorf("pool wants NCHW, got per-sample %v", inPer[0])
		}
		a := n.Attrs
		mp := &PlanMaxPool{
			C: inPer[0][0], InH: inPer[0][1], InW: inPer[0][2],
			OutH: outPer[1], OutW: outPer[2],
			KH: a.KernelH, KW: a.KernelW, SH: a.StrideH, SW: a.StrideW,
			PH: a.PadH, PW: a.PadW,
			Empty: inQ[0].Quantize(0),
		}
		if !sameQuant(inQ[0], finalQ) {
			mp.Recode = buildLUT(inQ[0], finalQ, func(x float32) float32 { return x })
		}
		step.MaxPool = mp
		return nil
	case nn.OpGlobalAvgPool:
		if len(inPer[0]) != 3 {
			return fmt.Errorf("global pool wants NCHW, got per-sample %v", inPer[0])
		}
		c, hw := inPer[0][0], inPer[0][1]*inPer[0][2]
		step.GlobalAvgPool = &PlanGlobalAvgPool{
			C: c, HW: hw,
			Req:  tensor.NewRequant(float64(inQ[0].Scale) / (float64(finalQ.Scale) * float64(hw))),
			ZPIn: inQ[0].Zero, ZPOut: finalQ.Zero,
		}
		return nil
	case nn.OpAdd:
		broadcast, err := classifyBroadcast(inPer, outPer)
		if err != nil {
			return err
		}
		for _, b := range broadcast {
			if b {
				return fmt.Errorf("%w: broadcast add", ErrPlanUnsupported)
			}
		}
		add := &PlanAdd{ZPOut: finalQ.Zero, Tables: make([]*[256]int32, len(inQ))}
		for op := range inQ {
			add.Tables[op] = buildAddLUT(inQ[op], finalQ)
		}
		step.Add = add
		return nil
	case nn.OpSoftmax:
		return errNoQuantKernel
	case nn.OpMul:
		if len(inPer) != 2 {
			return errNoQuantKernel
		}
		return fmt.Errorf("%w: %s", ErrPlanUnsupported, n.Op)
	case nn.OpAvgPool, nn.OpConcat, nn.OpUpsample:
		return fmt.Errorf("%w: %s", ErrPlanUnsupported, n.Op)
	default:
		return errNoQuantKernel
	}
}

// buildAddLUT tabulates one add operand's rescaled int32 contribution,
// the table both bindQuantAdd and the plan's PlanAdd carry.
func buildAddLUT(inQ, outQ tensor.QuantParams) *[256]int32 {
	var lut [256]int32
	s, zp := float64(inQ.Scale), inQ.Zero
	sOut := float64(outQ.Scale)
	for c := -128; c <= 127; c++ {
		lut[c+128] = int32(math.Round(s * float64(int32(c)-zp) / sOut))
	}
	return &lut
}

// buildIslandFunc wraps an op's FP32 island (the kernel the native
// engine binds, bindIsland) with a private single-worker context so
// execution is deterministic and independent of any engine instance.
// Bitwise parity with QuantEngine holds because the engine's kernels are
// bitwise-identical at any worker count.
func buildIslandFunc(q *quantOp) (IslandFunc, error) {
	qfn, spec, err := bindIsland(q)
	if err != nil {
		return nil, err
	}
	return func(batch int, dst []int8, srcs [][]int8) error {
		var sb scratchBufs
		sb.ensure(spec, batch, 1)
		rc := runCtx{batch: batch, workers: 1, threshold: 1 << 62, spec: spec, scratch: &sb}
		return qfn(&rc, dst, srcs)
	}, nil
}
