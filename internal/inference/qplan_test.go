package inference

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// TestIntLoweringPredicateMatchesLowering pins the island predicate of
// precision assignment to the integer lowering: over every operator
// kind and arity, ir.HasIntLowering is true exactly when lowerQuantOp does
// not turn the op down with errNoQuantKernel (a bare node may fail for
// other reasons, such as missing weights; that still is a lowering).
func TestIntLoweringPredicateMatchesLowering(t *testing.T) {
	shape := tensor.Shape{4, 6, 6}
	qp := tensor.QuantParams{Scale: 0.05, Zero: 3}
	ops := 0
	for op := nn.OpInput + 1; !strings.HasPrefix(op.String(), "OpType("); op++ {
		ops++
		for arity := 1; arity <= 3; arity++ {
			q := quantOp{node: &nn.Node{Name: "n", Op: op}, outPer: shape, outQ: qp}
			for i := 0; i < arity; i++ {
				q.inPer = append(q.inPer, shape)
				q.inQ = append(q.inQ, qp)
			}
			err := lowerQuantOp(&QuantStep{}, &q)
			if lowered := !errors.Is(err, errNoQuantKernel); lowered != ir.HasIntLowering(op, arity) {
				t.Errorf("%s/%d: HasIntLowering = %v, lowerQuantOp: %v", op, arity, !lowered, err)
			}
		}
	}
	if ops < 22 {
		t.Errorf("walked %d operator kinds, want every one past OpInput", ops)
	}
}

// TestQuantPlanAndEngineShareSteps checks that the data-level plan and
// the host engine come from the same lowering: for every model
// BuildQuantPlan accepts, its steps and CompileQuantized's are the same
// sequence of (name, op, output, operands).
func TestQuantPlanAndEngineShareSteps(t *testing.T) {
	graphs := append(exampleGraphs(), islandNet(),
		nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 5}),
		nn.MobileNetEdge(32, 10, nn.BuildOptions{Weights: true, Seed: 3}))
	accepted := 0
	for _, g := range graphs {
		samples, err := nn.SyntheticCalibration(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := calibrateVia(g, samples)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildQuantPlan(g, schema)
		if errors.Is(err, ErrPlanUnsupported) {
			t.Logf("%s: %v", g.Name, err)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		accepted++
		e, err := CompileQuantized(g, schema)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(p.Steps) != len(e.steps) {
			t.Fatalf("%s: plan has %d steps, engine %d", g.Name, len(p.Steps), len(e.steps))
		}
		for i, ps := range p.Steps {
			es := e.steps[i]
			if ps.Name != es.name || ps.Op != es.op || ps.Out != es.out || !slices.Equal(ps.Ins, es.ins) {
				t.Errorf("%s step %d: plan %s %s %d<-%v, engine %s %s %d<-%v", g.Name, i,
					ps.Name, ps.Op, ps.Out, ps.Ins, es.name, es.op, es.out, es.ins)
			}
		}
	}
	if accepted < 5 {
		t.Errorf("BuildQuantPlan accepted %d of %d models, want at least 5", accepted, len(graphs))
	}
}
