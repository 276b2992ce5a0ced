package ir

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// ErrSchemaGap reports that precision assignment found a lowered value
// without a usable quantization mapping. inference.CompileQuantized
// translates it to ErrNotQuantizable, the transparent-fallback signal.
var ErrSchemaGap = errors.New("ir: quant schema does not cover module")

// Weight keys materialized by the constant-folding pass.
const (
	// FoldScaleKey / FoldShiftKey hold batch-norm statistics folded to
	// one per-channel affine (nn.FoldBatchNormStats) at lowering time.
	FoldScaleKey = "fold.scale"
	FoldShiftKey = "fold.shift"
)

// steps is the lowering in its one order. cse runs before
// fold-constants on purpose: cseKey compares weight tensors by
// identity, and folding materializes fresh per-op derived tensors that
// would make otherwise-identical batch-norms never merge. A step
// rewrites the module in place, reporting whether anything changed; it
// must be deterministic. Only assign-precision reads the schema.
var steps = [...]struct {
	name string
	run  func(m *Module, schema *nn.QuantSchema) (changed bool, err error)
}{
	{"shape-inference", inferShapes},
	{"eliminate-identity", eliminateIdentity},
	{"eliminate-dead", eliminateDead},
	{"cse", eliminateCommon},
	{"fold-constants", foldConstants},
	{"fuse-epilogue", fuseEpilogue},
	{"assign-precision", assignPrecision},
}

// PassRecord is the outcome of one lowering step.
type PassRecord struct {
	Pass      string
	Changed   bool
	Duration  time.Duration
	OpsBefore int
	OpsAfter  int
	// Dump is the module's textual form after the step, captured only
	// when Lower is asked for dumps.
	Dump string
}

// Lower builds the module from g and runs the lowering steps in order,
// stopping at the first error, returning the module and one record per
// step run. A nil schema lowers a pure FP32 module; a schema assigns
// INT8 precision and marks FP32 islands. captureDumps also records the
// textual IR after each step (the -dump-ir surface of the CLIs and the
// golden pipeline tests).
func Lower(g *nn.Graph, schema *nn.QuantSchema, captureDumps bool) (*Module, []PassRecord, error) {
	m, err := FromGraph(g)
	if err != nil {
		return nil, nil, err
	}
	records := make([]PassRecord, 0, len(steps))
	for _, s := range steps {
		before := len(m.Ops)
		start := time.Now()
		changed, err := s.run(m, schema)
		rec := PassRecord{
			Pass:      s.name,
			Changed:   changed,
			Duration:  time.Since(start),
			OpsBefore: before,
			OpsAfter:  len(m.Ops),
		}
		if captureDumps {
			rec.Dump = m.Dump()
		}
		records = append(records, rec)
		if err != nil {
			return nil, records, fmt.Errorf("ir: pass %s: %w", s.name, err)
		}
	}
	return m, records, nil
}

// ---------------------------------------------------------------------------
// shape-inference
// ---------------------------------------------------------------------------

// inferShapes computes every value's static per-sample shape via the
// shared nn.InferShape rule.
func inferShapes(m *Module, _ *nn.QuantSchema) (bool, error) {
	changed := false
	for _, op := range m.Ops {
		var per tensor.Shape
		if op.Kind == nn.OpInput {
			if len(op.Attrs.Shape) == 0 {
				return changed, fmt.Errorf("input %q needs Attrs.Shape", op.Name)
			}
			full := append(tensor.Shape{1}, op.Attrs.Shape...)
			if !full.Valid() {
				return changed, fmt.Errorf("input %q has invalid shape %v", op.Name, full)
			}
			per = full[1:].Clone()
		} else {
			ins := make([]tensor.Shape, len(op.Ins))
			for i, in := range op.Ins {
				s := m.Values[in].Shape
				if s == nil {
					return changed, fmt.Errorf("op %q input %d has no inferred shape", op.Name, i)
				}
				ins[i] = append(tensor.Shape{1}, s...)
			}
			full, err := nn.InferShape(op.Kind, op.Attrs, op.Weights, ins)
			if err != nil {
				return changed, fmt.Errorf("op %q (%s): %w", op.Name, op.Kind, err)
			}
			per = full[1:].Clone()
		}
		v := m.Values[op.Out]
		if !v.Shape.Equal(per) {
			changed = true
		}
		v.Shape = per
		v.Elems = per.NumElements()
	}
	return changed, nil
}

// ---------------------------------------------------------------------------
// fold-constants
// ---------------------------------------------------------------------------

// foldConstants evaluates weight-only subexpressions at lowering time.
// Today that is batch normalization: the four statistic tensors fold to
// one per-channel affine (scale, shift) stored as derived weights, so
// kernel binders consume two tensors instead of recomputing the fold —
// bitwise identical because nn.FoldBatchNormStats is the single source
// of the arithmetic.
func foldConstants(m *Module, _ *nn.QuantSchema) (bool, error) {
	changed := false
	for _, op := range m.Ops {
		if op.Kind != nn.OpBatchNorm || op.Weight(FoldScaleKey) != nil {
			continue
		}
		gamma, beta := op.Weight(nn.GammaKey), op.Weight(nn.BetaKey)
		mean, variance := op.Weight(nn.MeanKey), op.Weight(nn.VarKey)
		if gamma == nil || beta == nil || mean == nil || variance == nil {
			continue // structure-only graph: binding will report it
		}
		// Shape inference admits batch norm on NCHW only: the per-sample
		// input shape leads with the channel count.
		channels := m.Values[op.Ins[0]].Shape[0]
		scale, shift, err := nn.FoldBatchNormStats(channels,
			gamma.Float32s(), beta.Float32s(), mean.Float32s(), variance.Float32s(), op.Attrs.Eps)
		if err != nil {
			return changed, fmt.Errorf("op %q: %w", op.Name, err)
		}
		st := tensor.New(tensor.FP32, len(scale))
		copy(st.F32, scale)
		sh := tensor.New(tensor.FP32, len(shift))
		copy(sh.F32, shift)
		// The op's weight map is private to the module (shallow-copied
		// in FromGraph), so folding never mutates the source graph.
		if op.Weights == nil {
			op.Weights = make(map[string]*tensor.Tensor, 2)
		}
		op.Weights[FoldScaleKey] = st
		op.Weights[FoldShiftKey] = sh
		changed = true
	}
	return changed, nil
}

// ---------------------------------------------------------------------------
// eliminate-identity
// ---------------------------------------------------------------------------

// eliminateIdentity drops Identity ops by rewiring their consumers to
// the identity's input, recording a name alias for debug executions.
// Identities that are declared outputs are kept (they define the
// output's buffer). This and eliminate-dead are the one graph cleanup:
// the toolchain packs graphs with their identities and dead nodes.
func eliminateIdentity(m *Module, _ *nn.QuantSchema) (bool, error) {
	drop := make(map[*Op]bool)
	for _, op := range m.Ops {
		if op.Kind != nn.OpIdentity || m.isOutputValue(op.Out) {
			continue
		}
		src := op.Ins[0]
		m.rewireValue(op.Out, src)
		m.Aliases[m.Values[op.Out].Name] = src
		drop[op] = true
	}
	m.removeOps(drop)
	return len(drop) > 0, nil
}

// ---------------------------------------------------------------------------
// eliminate-dead
// ---------------------------------------------------------------------------

// eliminateDead removes ops whose results cannot reach any declared
// output. The historical compilers executed dead nodes for interpreter
// parity; the lowered plan drops them, which also shrinks the arena.
func eliminateDead(m *Module, _ *nn.QuantSchema) (bool, error) {
	producer := make(map[int]*Op, len(m.Ops))
	for _, op := range m.Ops {
		producer[op.Out] = op
	}
	live := make(map[*Op]bool, len(m.Ops))
	var mark func(v int)
	mark = func(v int) {
		op := producer[v]
		if op == nil || live[op] {
			return
		}
		live[op] = true
		for _, in := range op.Ins {
			mark(in)
		}
	}
	for _, o := range m.Outputs {
		mark(o.Value)
	}
	drop := make(map[*Op]bool)
	for _, op := range m.Ops {
		// Input ops always stay: the engine's calling convention requires
		// every declared input, used or not.
		if !live[op] && op.Kind != nn.OpInput {
			drop[op] = true
		}
	}
	m.removeOps(drop)
	return len(drop) > 0, nil
}

// ---------------------------------------------------------------------------
// cse
// ---------------------------------------------------------------------------

// eliminateCommon merges ops that compute the same value: same kind,
// same operands, same attributes and the same weight tensors (by
// identity). The later op's value aliases the first's. Kernels are
// pure, so merged results are bitwise identical to computing both.
func eliminateCommon(m *Module, _ *nn.QuantSchema) (bool, error) {
	seen := make(map[string]*Op, len(m.Ops))
	drop := make(map[*Op]bool)
	for _, op := range m.Ops {
		if op.Kind == nn.OpInput {
			continue
		}
		key := cseKey(op)
		first, dup := seen[key]
		if !dup {
			seen[key] = op
			continue
		}
		m.rewireValue(op.Out, first.Out)
		m.Aliases[m.Values[op.Out].Name] = first.Out
		drop[op] = true
	}
	m.removeOps(drop)
	return len(drop) > 0, nil
}

// cseKey renders an op's computation (not its name) as a map key.
func cseKey(op *Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%v|", op.Kind, op.Ins)
	a := op.Attrs
	fmt.Fprintf(&b, "k%dx%d s%dx%d p%dx%d g%d o%d a%g sc%d sh%v e%g b%t|",
		a.KernelH, a.KernelW, a.StrideH, a.StrideW, a.PadH, a.PadW,
		a.Groups, a.OutC, a.Alpha, a.Scale, a.Shape, a.Eps, a.Bias)
	keys := make([]string, 0, len(op.Weights))
	for k := range op.Weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%p;", k, op.Weights[k])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// fuse-epilogue
// ---------------------------------------------------------------------------

// fuseEpilogue absorbs a producer's element-wise tail — the ubiquitous
// batch-norm → activation chain of conv blocks, a bare activation after
// dense, etc. — into the producing kernel. Each absorbed stage is
// applied per element at the output write (FP32) or composed into
// per-channel requantization lookup tables (INT8), so the intermediate
// values stop materializing: fewer arena slots and up to four fewer
// full passes over the tensor per conv block. A stage fuses only when
// the value it consumes has no other consumer and is not a declared
// output. Applied stagewise to the same float32 (or int8 code) the
// unfused steps would read, the epilogue yields bitwise-identical
// results.
func fuseEpilogue(m *Module, _ *nn.QuantSchema) (bool, error) {
	cons := m.consumers()
	drop := make(map[*Op]bool)
	for _, op := range m.Ops {
		if !IsFusableProducer(op.Kind) || len(op.Fused) > 0 || drop[op] {
			continue
		}
		for !m.isOutputValue(op.Out) {
			cs := cons[op.Out]
			if len(cs) != 1 {
				break
			}
			next := cs[0]
			if drop[next] || !IsFusableStage(next.Kind) {
				break
			}
			op.Fused = append(op.Fused, FusedOp{
				Name: next.Name, Kind: next.Kind, Attrs: next.Attrs,
				Weights: next.Weights, Pre: op.Out,
			})
			op.Out = next.Out
			drop[next] = true
		}
	}
	m.removeOps(drop)
	return len(drop) > 0, nil
}

// ---------------------------------------------------------------------------
// assign-precision
// ---------------------------------------------------------------------------

// assignPrecision stamps each value's storage precision. With a schema,
// every live value (including fused pre-values, whose mapping feeds the
// fused lookup tables) gets its INT8 affine mapping and ops without a
// native integer lowering (HasIntLowering) are marked as FP32 islands;
// a value without a usable mapping aborts lowering with ErrSchemaGap.
// Without a schema the module stays FP32 and the step is a no-op.
func assignPrecision(m *Module, schema *nn.QuantSchema) (bool, error) {
	if schema == nil {
		return false, nil
	}
	m.Quantized = true
	live := m.Live()
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		v := m.Values[id]
		qp, ok := schema.Params(v.Name)
		if !ok {
			return true, fmt.Errorf("%w: no range for value %q", ErrSchemaGap, v.Name)
		}
		if !(qp.Scale > 0) {
			return true, fmt.Errorf("%w: non-positive scale for value %q", ErrSchemaGap, v.Name)
		}
		v.Prec = INT8
		v.QP = qp
	}
	m.Islands = 0
	for _, op := range m.Ops {
		if op.Kind != nn.OpInput && !HasIntLowering(op.Kind, len(op.Ins)) {
			op.Island = true
			m.Islands++
		}
	}
	return true, nil
}

// HasIntLowering reports whether the INT8 executor has a native integer
// lowering for (op, arity); assign-precision marks every other op of a
// quantized module as an FP32 island. The executor's lowering
// (inference's lowerQuantOp) is the ground truth, and
// TestIntLoweringPredicateMatchesLowering holds the two to each other.
func HasIntLowering(op nn.OpType, arity int) bool {
	switch op {
	case nn.OpSoftmax:
		return false
	case nn.OpMul:
		return arity == 2
	}
	return true
}
