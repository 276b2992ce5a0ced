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

// Pass is one module-to-module rewrite of the lowering pipeline. Passes
// must be deterministic: the same module always rewrites the same way.
type Pass interface {
	// Name identifies the pass in records and dumps.
	Name() string
	// Run rewrites m in place, reporting whether anything changed.
	Run(m *Module) (changed bool, err error)
}

// Config parameterizes the standard pipeline.
type Config struct {
	// Schema enables INT8 precision assignment; nil lowers a pure FP32
	// module.
	Schema *nn.QuantSchema
	// IntLowering reports whether the executing backend has a native
	// integer kernel for (op, arity); ops without one become FP32
	// islands. Nil marks no islands.
	IntLowering func(op nn.OpType, arity int) bool
}

// StandardPasses returns the shared pipeline in its canonical order.
// CSE runs before FoldConstants on purpose: cseKey compares weight
// tensors by identity, and folding materializes fresh per-op derived
// tensors that would make otherwise-identical batch-norms never merge.
func StandardPasses(cfg Config) []Pass {
	return []Pass{
		ShapeInference{},
		EliminateIdentity{},
		EliminateDead{},
		CSE{},
		FoldConstants{},
		FuseEpilogue{},
		AssignPrecision{Schema: cfg.Schema, IntLowering: cfg.IntLowering},
	}
}

// PassRecord is the outcome of one pass execution.
type PassRecord struct {
	Pass      string
	Changed   bool
	Duration  time.Duration
	OpsBefore int
	OpsAfter  int
	// Dump is the module's textual form after the pass, captured only
	// when the manager's CaptureDumps is set.
	Dump string
}

// PassManager runs an ordered pass list over a module, recording per-
// pass timing, op counts and (optionally) dumps.
type PassManager struct {
	Passes       []Pass
	CaptureDumps bool
	Records      []PassRecord
}

// NewPassManager wraps a pass list.
func NewPassManager(passes ...Pass) *PassManager {
	return &PassManager{Passes: passes}
}

// Run executes the pipeline in order, stopping at the first error.
func (pm *PassManager) Run(m *Module) error {
	for _, p := range pm.Passes {
		before := len(m.Ops)
		start := time.Now()
		changed, err := p.Run(m)
		rec := PassRecord{
			Pass:      p.Name(),
			Changed:   changed,
			Duration:  time.Since(start),
			OpsBefore: before,
			OpsAfter:  len(m.Ops),
		}
		if pm.CaptureDumps {
			rec.Dump = m.Dump()
		}
		pm.Records = append(pm.Records, rec)
		if err != nil {
			return fmt.Errorf("ir: pass %s: %w", p.Name(), err)
		}
	}
	return nil
}

// Lower is the one-call form: build the module from g and run the
// standard pipeline, returning the module and the pass records.
func Lower(g *nn.Graph, cfg Config, captureDumps bool) (*Module, []PassRecord, error) {
	m, err := FromGraph(g)
	if err != nil {
		return nil, nil, err
	}
	pm := NewPassManager(StandardPasses(cfg)...)
	pm.CaptureDumps = captureDumps
	if err := pm.Run(m); err != nil {
		return nil, pm.Records, err
	}
	return m, pm.Records, nil
}

// ---------------------------------------------------------------------------
// shape-inference
// ---------------------------------------------------------------------------

// ShapeInference computes every value's static per-sample shape via the
// shared nn.InferShape rule.
type ShapeInference struct{}

// Name implements Pass.
func (ShapeInference) Name() string { return "shape-inference" }

// Run implements Pass.
func (ShapeInference) Run(m *Module) (bool, error) {
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

// FoldConstants evaluates weight-only subexpressions at lowering time.
// Today that is batch normalization: the four statistic tensors fold to
// one per-channel affine (scale, shift) stored as derived weights, so
// kernel binders consume two tensors instead of recomputing the fold —
// bitwise identical because nn.FoldBatchNormStats is the single source
// of the arithmetic.
type FoldConstants struct{}

// Name implements Pass.
func (FoldConstants) Name() string { return "fold-constants" }

// Run implements Pass.
func (FoldConstants) Run(m *Module) (bool, error) {
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
		scale, shift := nn.FoldBatchNormStats(
			gamma.Float32s(), beta.Float32s(), mean.Float32s(), variance.Float32s(), op.Attrs.Eps)
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

// EliminateIdentity drops Identity ops by rewiring their consumers to
// the identity's input, recording a name alias for debug executions.
// Identities that are declared outputs are kept (they define the
// output's buffer), mirroring optimize.RemoveIdentity.
type EliminateIdentity struct{}

// Name implements Pass.
func (EliminateIdentity) Name() string { return "eliminate-identity" }

// Run implements Pass.
func (EliminateIdentity) Run(m *Module) (bool, error) {
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

// EliminateDead removes ops whose results cannot reach any declared
// output. The historical compilers executed dead nodes for interpreter
// parity; the lowered plan drops them, which also shrinks the arena.
type EliminateDead struct{}

// Name implements Pass.
func (EliminateDead) Name() string { return "eliminate-dead" }

// Run implements Pass.
func (EliminateDead) Run(m *Module) (bool, error) {
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

// CSE merges ops that compute the same value: same kind, same operands,
// same attributes and the same weight tensors (by identity). The later
// op's value aliases the first's. Kernels are pure, so merged results
// are bitwise identical to computing both.
type CSE struct{}

// Name implements Pass.
func (CSE) Name() string { return "cse" }

// Run implements Pass.
func (CSE) Run(m *Module) (bool, error) {
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
// fuse-activation
// ---------------------------------------------------------------------------

// FuseEpilogue absorbs a producer's element-wise tail — the ubiquitous
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
type FuseEpilogue struct{}

// Name implements Pass.
func (FuseEpilogue) Name() string { return "fuse-epilogue" }

// Run implements Pass.
func (FuseEpilogue) Run(m *Module) (bool, error) {
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

// AssignPrecision stamps each value's storage precision. With a schema,
// every live value (including fused pre-values, whose mapping feeds the
// fused lookup tables) gets its INT8 affine mapping and ops without a
// native integer lowering are marked as FP32 islands; a value without a
// usable mapping aborts lowering with ErrSchemaGap. Without a schema
// the module stays FP32 and the pass is a no-op.
type AssignPrecision struct {
	Schema      *nn.QuantSchema
	IntLowering func(op nn.OpType, arity int) bool
}

// Name implements Pass.
func (AssignPrecision) Name() string { return "assign-precision" }

// Run implements Pass.
func (p AssignPrecision) Run(m *Module) (bool, error) {
	if p.Schema == nil {
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
		qp, ok := p.Schema.Params(v.Name)
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
		if op.Kind == nn.OpInput {
			continue
		}
		if p.IntLowering != nil && !p.IntLowering(op.Kind, len(op.Ins)) {
			op.Island = true
			m.Islands++
		}
	}
	return true, nil
}
