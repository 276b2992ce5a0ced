// Package optimize implements the model-optimization passes of the
// VEDLIoT toolchain (paper Section III): graph surgery (batch-norm
// folding), pruning, post-training quantization, weight clustering and
// Huffman coding — the Deep Compression pipeline of Han et al. [7],
// whose "up to 49x" size reduction the paper cites.
//
// Passes operate on nn.Graph values and are validated against the
// reference interpreter: every structural pass must leave the network's
// function unchanged up to floating-point tolerance.
package optimize

import (
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// passes is the graph surgery that changes weight bits: batch-norm
// folding. Identity and dead-node elimination are the lowering's
// (inference/ir's eliminate-identity and eliminate-dead run on every
// compile), so a packed graph keeps them. A pass rewrites g in place,
// reporting whether anything changed.
var passes = [...]struct {
	name  string
	apply func(g *nn.Graph) (changed bool)
}{
	{"fold-batchnorm", foldBatchNorm},
}

// maxSweeps bounds Pipeline's sweeps over the passes.
const maxSweeps = 8

// Pipeline applies the passes in order until none reports a change (at
// most maxSweeps sweeps), returning the applied-pass log.
func Pipeline(g *nn.Graph) []string {
	var log []string
	for iter := 0; iter < maxSweeps; iter++ {
		any := false
		for _, p := range passes {
			if p.apply(g) {
				log = append(log, p.name)
				any = true
			}
		}
		if !any {
			return log
		}
	}
	return log
}

// foldBatchNorm fuses inference-mode batch normalization into the
// preceding convolution's weights and bias: the classic deployment
// optimization ("operator fusion" in the paper's step 4). The
// statistics fold to one per-channel affine through
// nn.FoldBatchNormStats, the arithmetic the compilers' fold-constants
// step uses: w·scale and bias·scale+shift.
func foldBatchNorm(g *nn.Graph) bool {
	consumers := g.Consumers()
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
		outC := w.Shape[0]
		scale, shift, err := nn.FoldBatchNormStats(outC,
			gamma.Float32s(), beta.Float32s(), mean.Float32s(), variance.Float32s(), bn.Attrs.Eps)
		if err != nil {
			continue // statistics of the wrong length: compiling reports it
		}
		wv := w.Float32s()
		perOut := len(wv) / outC
		bias := make([]float32, outC)
		if b := conv.Weight(nn.BiasKey); b != nil {
			bias = b.Float32s()
		}

		newW := tensor.New(tensor.FP32, w.Shape...)
		newB := tensor.New(tensor.FP32, outC)
		for oc := 0; oc < outC; oc++ {
			for i := oc * perOut; i < (oc+1)*perOut; i++ {
				newW.F32[i] = wv[i] * scale[oc]
			}
			// The conversion rounds the product, so no target fuses it
			// into the add.
			newB.F32[oc] = float32(bias[oc]*scale[oc]) + shift[oc]
		}
		conv.SetWeight(nn.WeightKey, newW)
		conv.SetWeight(nn.BiasKey, newB)
		conv.Attrs.Bias = true

		// Rewire BN consumers to the conv and drop the BN node.
		rewire(g, bn.Name, conv.Name)
		remove = append(remove, bn.Name)
	}
	g.Remove(remove...)
	return len(remove) > 0
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
