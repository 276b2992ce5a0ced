package optimize

import (
	"fmt"
	"testing"

	"vedliot/internal/inference"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

func probeInputs(g *nn.Graph, n int) []map[string]*tensor.Tensor {
	if err := g.InferShapes(1); err != nil {
		panic(err)
	}
	shape := g.Node(g.Inputs[0]).OutShape
	var probes []map[string]*tensor.Tensor
	for p := 0; p < n; p++ {
		in := tensor.New(tensor.FP32, shape...)
		for i := range in.F32 {
			in.F32[i] = float32((i*5+p*11)%19)/19 - 0.5
		}
		probes = append(probes, map[string]*tensor.Tensor{g.Inputs[0]: in})
	}
	return probes
}

func TestValidatePassesStandardPipeline(t *testing.T) {
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 31})
	x := b.Input("input", 1, 12, 12)
	x = b.ConvBNAct(x, 1, 4, 3, 1, 1, nn.OpReLU)
	x = b.ConvBNAct(x, 4, 8, 3, 2, 1, nn.OpReLU)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	g := b.Graph(x)
	// Non-trivial BN statistics so folding actually changes weights.
	for _, n := range g.Nodes {
		if n.Op == nn.OpBatchNorm {
			for i := range n.Weight(nn.MeanKey).F32 {
				n.Weight(nn.MeanKey).F32[i] = 0.05 * float32(i+1)
				n.Weight(nn.VarKey).F32[i] = 0.5 + 0.1*float32(i)
			}
		}
	}
	rewritten, rep, err := validatePasses(g, probeInputs(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) == 0 {
		t.Error("standard passes applied nothing to a conv+BN graph")
	}
	if rep.Probes != 4 {
		t.Errorf("validated %d probes, want 4", rep.Probes)
	}
	if rep.MaxDiff > 1e-4 {
		t.Errorf("pipeline changed the function: max diff %g", rep.MaxDiff)
	}
	if len(rewritten.Nodes) >= len(g.Nodes) {
		t.Errorf("folding did not shrink the graph: %d -> %d nodes", len(g.Nodes), len(rewritten.Nodes))
	}
	// The original graph is untouched.
	for _, n := range g.Nodes {
		if n.Op == nn.OpBatchNorm {
			return
		}
	}
	t.Error("validatePasses mutated the input graph")
}

func TestValidatePassesNeedsProbes(t *testing.T) {
	g := nn.MLP("m", []int{4, 2}, nn.BuildOptions{Weights: true, Seed: 1})
	if _, _, err := validatePasses(g, nil); err == nil {
		t.Error("validation accepted zero probes")
	}
}

// validationReport records a pass-preservation check.
type validationReport struct {
	// Applied is the pipeline log of passes that changed the graph.
	Applied []string
	// Probes is the number of probe inputs compared.
	Probes int
	// MaxDiff is the worst output divergence observed across all probes
	// and declared outputs.
	MaxDiff float64
}

// validatePasses checks that the optimization pipeline preserves the
// network function: it applies Pipeline to a clone of g and compares
// the rewritten graph against the original on every probe input. Both
// graphs are compiled exactly once and the engines then run all probes —
// the compile-once/run-many shape every pass validation should have.
// It returns the rewritten graph so callers can adopt it once validated.
//
// A non-nil error means the pipeline or an execution failed; a MaxDiff
// above the caller's tolerance means the rewrite changed the function.
func validatePasses(g *nn.Graph, probes []map[string]*tensor.Tensor) (*nn.Graph, validationReport, error) {
	var rep validationReport
	if len(probes) == 0 {
		return nil, rep, fmt.Errorf("optimize: validation needs at least one probe input")
	}
	rewritten := g.Clone()
	applied, err := Pipeline(rewritten)
	if err != nil {
		return nil, rep, err
	}
	rep.Applied = applied

	ref, err := inference.Compile(g)
	if err != nil {
		return nil, rep, fmt.Errorf("optimize: compile reference: %w", err)
	}
	opt, err := inference.Compile(rewritten)
	if err != nil {
		return nil, rep, fmt.Errorf("optimize: compile rewritten: %w", err)
	}
	if len(g.Outputs) != len(rewritten.Outputs) {
		return nil, rep, fmt.Errorf("optimize: pipeline changed output count %d -> %d",
			len(g.Outputs), len(rewritten.Outputs))
	}
	for _, probe := range probes {
		want, err := ref.Run(probe)
		if err != nil {
			return nil, rep, fmt.Errorf("optimize: reference run: %w", err)
		}
		got, err := opt.Run(probe)
		if err != nil {
			return nil, rep, fmt.Errorf("optimize: rewritten run: %w", err)
		}
		// Outputs are compared positionally: passes may legally rewire a
		// declared output to a differently named node (e.g. batch-norm
		// folding exposes the fused convolution).
		for i, name := range g.Outputs {
			w := want[name]
			o := got[rewritten.Outputs[i]]
			d, err := tensor.MaxAbsDiff(w, o)
			if err != nil {
				return nil, rep, fmt.Errorf("optimize: output %s: %w", name, err)
			}
			if d > rep.MaxDiff {
				rep.MaxDiff = d
			}
		}
		rep.Probes++
	}
	return rewritten, rep, nil
}
