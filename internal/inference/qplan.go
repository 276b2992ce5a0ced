package inference

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// QuantPlan is the exported description of the native INT8 execution
// plan: the integer lowering (lowerQuantOp) stated as data, so
// alternative backends (the RISC-V firmware code generator) can
// reproduce it instruction for instruction. newQuantEngine binds its
// host kernels from these same steps, so every constant here (weight
// codes, folded biases, requantizers, lookup tables) has one producer
// and a backend that follows the step semantics below is bit-exact with
// QuantEngine by construction.
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
// non-nil (Island counts as a kind) in a step BuildQuantPlan returns.
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

	// host and spec are the bound kernel and scratch of a step that only
	// the host engine runs: an island, or an op the plan does not state as
	// data (ErrPlanUnsupported to BuildQuantPlan).
	host kernelFunc[int8]
	spec scratchSpec
}

// IslandFunc executes one FP32-island step over batch-major int8 code
// buffers, exactly as the native engine's wrapped fallback kernel does.
type IslandFunc func(batch int, dst []int8, srcs [][]int8) error

// ConvGeom is the compile-time geometry of one convolution: the one
// record lowering, both executors' binders and the plane kernel read.
type ConvGeom = tensor.ConvGeom

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
// the shared pipeline and the one integer lowering (identical to
// CompileQuantized) and keeps the steps as data. Returns
// ErrNotQuantizable when the schema does not cover the graph, and
// ErrPlanUnsupported (wrapped, with the op identity) when the module
// contains an op the plan cannot describe bit-exactly.
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
	if p.Steps, err = lowerQuantSteps(m, &sc); err != nil {
		return nil, err
	}
	for i := range p.Steps {
		if st := &p.Steps[i]; st.host != nil && st.Island == nil {
			return nil, fmt.Errorf("inference: compile quantized node %q (%s): %w", st.Name, st.Op, ErrPlanUnsupported)
		}
	}
	return p, nil
}

// quantOp is one op of a lowered INT8 module as the integer lowering
// reads it: shapes in plan terms, the schema's mappings, and the fused
// chain composed into per-channel code tables.
type quantOp struct {
	node   *nn.Node
	inPer  []tensor.Shape
	outPer tensor.Shape
	inQ    []tensor.QuantParams
	// outQ is the mapping the op produces: the step output's schema
	// mapping, or the op's own pre-epilogue mapping when a fused chain
	// (post) recodes from there.
	outQ tensor.QuantParams
	post []*[256]int8
}

// lowerQuantSteps lowers every op of an INT8 module to its QuantStep,
// in step order, with the ops spread over the host's cores (lowerEach):
// the data-level plan's steps.
func lowerQuantSteps(m *ir.Module, sc *scaffold) ([]QuantStep, error) {
	ops := stepOps(m)
	steps := make([]QuantStep, len(ops))
	err := lowerEach(len(ops), func(i int) error {
		return lowerQuantStep(&steps[i], m, sc, ops[i])
	})
	if err != nil {
		return nil, err
	}
	return steps, nil
}

// lowerQuantStep lowers one op of an INT8 module into st — once per
// compile, for the host binder (newQuantEngine) and the data-level plan
// (BuildQuantPlan) alike. Ops precision assignment marked as FP32
// islands, and those lowerQuantOp turns down with errNoQuantKernel,
// become island steps.
func lowerQuantStep(st *QuantStep, m *ir.Module, sc *scaffold, op *ir.Op) error {
	*st = QuantStep{Name: op.Name, Op: op.Kind, Out: sc.valOf[op.Out]}
	q := quantOp{node: nodeFromOp(op), outPer: sc.vals[st.Out].per, outQ: sc.vals[st.Out].qp}
	st.Ins, q.inPer = opOperands(sc, op)
	q.inQ = make([]tensor.QuantParams, len(st.Ins))
	for i, in := range st.Ins {
		q.inQ[i] = sc.vals[in].qp
	}
	err := errNoQuantKernel
	if !op.Island {
		// The producer requantizes to its own (pre-epilogue)
		// mapping; a fused chain recodes from there through the
		// composed per-channel lookup tables — the same tables the
		// standalone stages would apply one by one.
		if q.post, err = buildEpilogueLUTs(m, op, channelCount(q.outPer)); err != nil {
			return compileError(op, true, err)
		}
		if q.post != nil {
			q.outQ = m.Values[op.Fused[0].Pre].QP
		}
		err = lowerQuantOp(st, &q)
	}
	if errors.Is(err, errNoQuantKernel) {
		// No integer lowering: run the FP32 kernel inside a
		// dequantize/requantize island. A fused op must never reach
		// this path — the bare producer would silently skip its
		// epilogue — so it is a compile error, not a fallback.
		if len(op.Fused) > 0 {
			return compileError(op, true, fmt.Errorf("fused op has no integer lowering"))
		}
		err = lowerIsland(st, &q)
	}
	if err != nil {
		return compileError(op, true, err)
	}
	return nil
}

// lowerQuantOp is the integer lowering of one op: the only place that
// derives INT8 constants (weight codes, folded biases, requantizers,
// code tables) from an operator kind. The ops the plan states as data
// fill in their kind field, which the host binders (bindQuantStep) and
// the firmware generator both read; average pooling, mul, concat,
// upsample and broadcast add, whose kernels are too intricate to state
// loosely, carry their bound host kernel instead. post is a fused
// activation recode applied inside the producer's requantization loop
// (conv/dense) or composed into the per-channel tables (batch-norm) —
// exactly the table the standalone activation step would apply, so
// fusion is bitwise invisible. Returns errNoQuantKernel for an op
// without an integer lowering (ir.HasIntLowering predicts the set).
func lowerQuantOp(st *QuantStep, q *quantOp) (err error) {
	n, inPer, outPer, inQ, outQ, post := q.node, q.inPer, q.outPer, q.inQ, q.outQ, q.post
	if post != nil && !ir.IsFusableProducer(n.Op) {
		return fmt.Errorf("op %s cannot absorb a fused epilogue", n.Op)
	}
	// recode is the table onto the output mapping of an op that moves
	// codes unchanged in value: nil (a plain copy) when the mappings agree.
	recode := func(from tensor.QuantParams) *[256]int8 {
		if sameQuant(from, outQ) {
			return nil
		}
		return buildLUT(from, outQ, func(x float32) float32 { return x })
	}
	switch n.Op {
	case nn.OpConv, nn.OpDepthwiseConv:
		g, w, err := convGeometry(n, inPer[0], outPer)
		if err != nil {
			return err
		}
		codes, wScales := quantizeFilter(w, g.OutC)
		bias32, req := foldBias(n.Weight(nn.BiasKey), wScales, inQ[0], outQ)
		st.Conv = &PlanConv{
			Geom: g, W: codes, Bias: bias32, Req: req,
			ZPIn: inQ[0].Zero, ZPOut: outQ.Zero, Post: post,
		}
	case nn.OpDense:
		inF, outF, w, err := denseGeometry(n, inPer[0], outPer)
		if err != nil {
			return err
		}
		codes, wScales := quantizeFilter(w, outF)
		bias32, req := foldBias(n.Weight(nn.BiasKey), wScales, inQ[0], outQ)
		st.Dense = &PlanDense{
			InF: inF, OutF: outF, W: codes, Bias: bias32, Req: req,
			ZPIn: inQ[0].Zero, ZPOut: outQ.Zero, Post: post,
		}
	case nn.OpBatchNorm:
		// Inference-mode normalization is one lookup table per channel:
		// the per-channel affine y = s*x + sh composed with the in/out
		// mappings is still a scalar function of the input code. A fused
		// activation's recode table composes into each channel table — one
		// lookup where the unfused plan does two.
		if len(inPer[0]) != 3 {
			return fmt.Errorf("batchnorm wants NCHW, got per-sample %v", inPer[0])
		}
		c := inPer[0][0]
		scale, shift, err := bnScaleShift(n, c)
		if err != nil {
			return err
		}
		slab := buildAffineLUTs(inQ[0], outQ, scale, shift)
		luts := make([]*[256]int8, c)
		for ch := range luts {
			luts[ch] = &slab[ch]
			if post != nil {
				composeLUT(luts[ch], post[ch])
			}
		}
		st.LUTPerChannel = &PlanLUTPerChannel{C: c, HW: inPer[0][1] * inPer[0][2], Tables: luts}
	case nn.OpReLU, nn.OpReLU6, nn.OpLeakyReLU, nn.OpSigmoid, nn.OpTanh,
		nn.OpHSwish, nn.OpHSigmoid, nn.OpMish:
		f, err := activationFn(n)
		if err != nil {
			return err
		}
		st.LUT = &PlanLUT{Table: buildLUT(inQ[0], outQ, f)}
	case nn.OpFlatten, nn.OpIdentity:
		st.LUT = &PlanLUT{Table: recode(inQ[0])}
	case nn.OpMaxPool:
		// Max over codes equals max over reals (the affine map is
		// monotone), so the window max is taken in the code domain and
		// recoded only when the calibrated output range differs from the
		// input's. Windows with no in-bounds taps read real 0.
		mp, err := poolGeom(n, inPer[0], outPer)
		if err != nil {
			return err
		}
		mp.Empty, mp.Recode = inQ[0].Quantize(0), recode(inQ[0])
		st.MaxPool = &mp
	case nn.OpGlobalAvgPool:
		if len(inPer[0]) != 3 {
			return fmt.Errorf("global pool wants NCHW, got per-sample %v", inPer[0])
		}
		hw := inPer[0][1] * inPer[0][2]
		st.GlobalAvgPool = &PlanGlobalAvgPool{
			C: inPer[0][0], HW: hw,
			Req:  tensor.NewRequant(float64(inQ[0].Scale) / (float64(outQ.Scale) * float64(hw))),
			ZPIn: inQ[0].Zero, ZPOut: outQ.Zero,
		}
	case nn.OpAdd:
		// Each operand's real contribution, rescaled to the output scale,
		// is a 256-entry int32 table of its code.
		broadcast, err := classifyBroadcast(inPer, outPer)
		if err != nil {
			return err
		}
		add := &PlanAdd{ZPOut: outQ.Zero, Tables: make([]*[256]int32, len(inQ))}
		for op := range inQ {
			add.Tables[op] = buildAddLUT(inQ[op], outQ)
		}
		if slices.Contains(broadcast, true) {
			// One plane per channel under a [C,1,1] operand.
			st.host, st.spec = bindQuantAdd(add, broadcast, outPer[0], outPer[1]*outPer[2])
		} else {
			st.Add = add
		}
	case nn.OpMul:
		// Two-operand products fit the int32 accumulator; higher arity
		// falls back to the FP32 island.
		if len(inPer) != 2 {
			return errNoQuantKernel
		}
		st.host, st.spec, err = bindQuantMul(inPer, outPer, inQ, outQ)
	case nn.OpAvgPool:
		st.host, err = bindQuantAvgPool(n, inPer[0], outPer, inQ[0], outQ)
	case nn.OpConcat:
		// Each branch carries its own calibrated range; recode onto the
		// shared output mapping unless they already agree.
		luts := make([]*[256]int8, len(inQ))
		for i := range inQ {
			luts[i] = recode(inQ[i])
		}
		st.host, err = bindQuantConcat(inPer, outPer, luts)
	case nn.OpUpsample:
		move, err := bindUpsample[int8](n, inPer[0], outPer)
		if err != nil {
			return err
		}
		st.host = recodeAfter(move, recode(inQ[0]))
	default:
		err = errNoQuantKernel
	}
	return err
}

// lowerIsland lowers an op without an integer lowering as an FP32
// island: its FP32 kernel inside the dequantize/requantize wrapper, for
// the host engine as the step's kernel and for other backends as an
// IslandFunc with a private context and scratch, so execution is
// independent of any engine instance. Bitwise parity with QuantEngine
// holds because both run the same kernel closure.
func lowerIsland(st *QuantStep, q *quantOp) error {
	fk, spec, err := bindKernel(q.node, q.inPer, q.outPer, nil)
	if err != nil {
		return err
	}
	kern, wrapSpec := wrapFP32Fallback(fk, q.inPer, q.outPer, q.inQ, q.outQ)
	spec.grow(wrapSpec)
	st.host, st.spec = kern, spec
	st.Island = func(batch int, dst []int8, srcs [][]int8) error {
		var sb scratchBufs
		sb.ensure(spec, batch)
		rc := runCtx{batch: batch, spec: spec, scratch: &sb}
		return kern(&rc, dst, srcs)
	}
	return nil
}

// buildAddLUT tabulates one add operand's rescaled int32 contribution.
func buildAddLUT(inQ, outQ tensor.QuantParams) *[256]int32 {
	var lut [256]int32
	s, zp := float64(inQ.Scale), inQ.Zero
	sOut := float64(outQ.Scale)
	for c := -128; c <= 127; c++ {
		lut[c+128] = int32(math.Round(s * float64(int32(c)-zp) / sOut))
	}
	return &lut
}
