// Package optimize implements the model-optimization passes of the
// VEDLIoT toolchain (paper Section III): graph surgery (batch-norm
// folding, dead-node elimination), pruning, post-training quantization,
// weight clustering and Huffman coding — the Deep Compression pipeline
// of Han et al. [7], whose "up to 49x" size reduction the paper cites.
//
// Passes operate on nn.Graph values and are validated against the
// reference interpreter: every structural pass must leave the network's
// function unchanged up to floating-point tolerance.
package optimize

import (
	"fmt"
	"math"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Pass is one graph-to-graph rewrite.
type Pass interface {
	// Name identifies the pass in pipeline reports.
	Name() string
	// Apply rewrites g in place, reporting whether anything changed.
	Apply(g *nn.Graph) (changed bool, err error)
}

// maxSweeps bounds Pipeline's sweeps over the passes.
const maxSweeps = 8

// Pipeline applies StandardPasses in order until none reports a change
// (at most maxSweeps sweeps), returning the applied-pass log.
func Pipeline(g *nn.Graph) ([]string, error) {
	var log []string
	for iter := 0; iter < maxSweeps; iter++ {
		any := false
		for _, p := range StandardPasses() {
			changed, err := p.Apply(g)
			if err != nil {
				return log, fmt.Errorf("optimize: pass %s: %w", p.Name(), err)
			}
			if changed {
				log = append(log, p.Name())
				any = true
			}
		}
		if !any {
			return log, nil
		}
	}
	return log, nil
}

// FoldBatchNorm fuses inference-mode batch normalization into the
// preceding convolution's weights and bias: the classic deployment
// optimization ("operator fusion" in the paper's step 4).
type FoldBatchNorm struct{}

// Name implements Pass.
func (FoldBatchNorm) Name() string { return "fold-batchnorm" }

// Apply implements Pass.
func (FoldBatchNorm) Apply(g *nn.Graph) (bool, error) {
	consumers := g.Consumers()
	changed := false
	var remove []string
	for _, bn := range g.Nodes {
		if bn.Op != nn.OpBatchNorm {
			continue
		}
		conv := g.Node(bn.Inputs[0])
		if conv == nil || (conv.Op != nn.OpConv && conv.Op != nn.OpDepthwiseConv) {
			continue
		}
		// The conv must feed only this BN, or folding would change the
		// other consumers.
		if len(consumers[conv.Name]) != 1 {
			continue
		}
		w := conv.Weight(nn.WeightKey)
		gamma, beta := bn.Weight(nn.GammaKey), bn.Weight(nn.BetaKey)
		mean, variance := bn.Weight(nn.MeanKey), bn.Weight(nn.VarKey)
		if w == nil || gamma == nil || beta == nil || mean == nil || variance == nil {
			continue // structure-only graph: nothing to fold numerically
		}
		eps := bn.Attrs.Eps
		if eps == 0 {
			eps = 1e-5
		}
		outC := w.Shape[0]
		perOut := w.NumElements() / outC

		wv := w.Float32s()
		gv, bv := gamma.Float32s(), beta.Float32s()
		mv, vv := mean.Float32s(), variance.Float32s()

		bias := conv.Weight(nn.BiasKey)
		var biasV []float32
		if bias != nil {
			biasV = bias.Float32s()
		} else {
			biasV = make([]float32, outC)
		}

		newW := tensor.New(tensor.FP32, w.Shape...)
		newB := tensor.New(tensor.FP32, outC)
		for oc := 0; oc < outC; oc++ {
			scale := gv[oc] / float32(math.Sqrt(float64(vv[oc])+float64(eps)))
			for i := 0; i < perOut; i++ {
				newW.F32[oc*perOut+i] = wv[oc*perOut+i] * scale
			}
			newB.F32[oc] = (biasV[oc]-mv[oc])*scale + bv[oc]
		}
		conv.SetWeight(nn.WeightKey, newW)
		conv.SetWeight(nn.BiasKey, newB)
		conv.Attrs.Bias = true

		// Rewire BN consumers to the conv and drop the BN node.
		rewire(g, bn.Name, conv.Name)
		remove = append(remove, bn.Name)
		changed = true
	}
	if len(remove) > 0 {
		g.Remove(remove...)
	}
	return changed, nil
}

// RemoveIdentity drops Identity nodes, rewiring their consumers.
type RemoveIdentity struct{}

// Name implements Pass.
func (RemoveIdentity) Name() string { return "remove-identity" }

// Apply implements Pass.
func (RemoveIdentity) Apply(g *nn.Graph) (bool, error) {
	changed := false
	var remove []string
	for _, n := range g.Nodes {
		if n.Op != nn.OpIdentity {
			continue
		}
		if isOutput(g, n.Name) {
			continue
		}
		rewire(g, n.Name, n.Inputs[0])
		remove = append(remove, n.Name)
		changed = true
	}
	if len(remove) > 0 {
		g.Remove(remove...)
	}
	return changed, nil
}

// DeadNodeElimination removes nodes not reachable from any declared
// output.
type DeadNodeElimination struct{}

// Name implements Pass.
func (DeadNodeElimination) Name() string { return "dead-node-elimination" }

// Apply implements Pass.
func (DeadNodeElimination) Apply(g *nn.Graph) (bool, error) {
	live := make(map[string]bool, len(g.Nodes))
	var mark func(name string)
	mark = func(name string) {
		if live[name] {
			return
		}
		live[name] = true
		if n := g.Node(name); n != nil {
			for _, in := range n.Inputs {
				mark(in)
			}
		}
	}
	for _, out := range g.Outputs {
		mark(out)
	}
	var remove []string
	for _, n := range g.Nodes {
		if !live[n.Name] {
			remove = append(remove, n.Name)
		}
	}
	if len(remove) == 0 {
		return false, nil
	}
	g.Remove(remove...)
	return true, nil
}

// rewire makes every consumer of `from` consume `to` instead, and fixes
// declared outputs.
func rewire(g *nn.Graph, from, to string) {
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in == from {
				n.Inputs[i] = to
			}
		}
	}
	for i, out := range g.Outputs {
		if out == from {
			g.Outputs[i] = to
		}
	}
}

func isOutput(g *nn.Graph, name string) bool {
	for _, out := range g.Outputs {
		if out == name {
			return true
		}
	}
	return false
}

// StandardPasses returns the default deployment pipeline: identity
// removal, batch-norm folding and dead-node elimination.
func StandardPasses() []Pass {
	return []Pass{RemoveIdentity{}, FoldBatchNorm{}, DeadNodeElimination{}}
}
