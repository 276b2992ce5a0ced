package optimize

import (
	"fmt"
	"math"
	"sort"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// PruneReport summarizes the effect of a pruning pass.
type PruneReport struct {
	// TotalWeights counts prunable weight elements (conv/dense kernels;
	// biases and batch-norm statistics are never pruned).
	TotalWeights int64
	// Zeroed counts weights set to zero by the pass.
	Zeroed int64
	// PerLayer maps node name to its resulting sparsity in [0,1].
	PerLayer map[string]float64
	// MACsBefore/MACsAfter give the dense and effective (zero-skipped)
	// multiply-accumulate counts, the "theoretical speed-up" of §III.
	MACsBefore int64
	MACsAfter  int64
}

// Sparsity returns the overall fraction of zeroed weights.
func (r PruneReport) Sparsity() float64 {
	if r.TotalWeights == 0 {
		return 0
	}
	return float64(r.Zeroed) / float64(r.TotalWeights)
}

// TheoreticalSpeedup returns MACsBefore/MACsAfter — the speed-up a
// perfectly sparsity-exploiting machine would achieve.
func (r PruneReport) TheoreticalSpeedup() float64 {
	if r.MACsAfter == 0 {
		return math.Inf(1)
	}
	return float64(r.MACsBefore) / float64(r.MACsAfter)
}

// prunable reports whether the node's main weight participates in
// pruning.
func prunable(n *nn.Node) bool {
	switch n.Op {
	case nn.OpConv, nn.OpDepthwiseConv, nn.OpDense:
		return n.Weight(nn.WeightKey) != nil
	}
	return false
}

// MagnitudePrune zeroes the globally smallest |w| weights until the
// target sparsity is reached (unstructured pruning). The graph must have
// inferred shapes for MAC accounting.
func MagnitudePrune(g *nn.Graph, sparsity float64) (PruneReport, error) {
	if sparsity < 0 || sparsity >= 1 {
		return PruneReport{}, fmt.Errorf("optimize: sparsity %v outside [0,1)", sparsity)
	}
	rep := PruneReport{PerLayer: make(map[string]float64)}

	// The global threshold is the k-th smallest |w|; a counting
	// selection finds it exactly in two passes, without materializing
	// and sorting the full magnitude vector (which dominated pruning
	// time on ResNet50-sized models).
	total := 0
	for _, n := range g.Nodes {
		if !prunable(n) {
			continue
		}
		total += n.Weight(nn.WeightKey).NumElements()
	}
	if total == 0 {
		return rep, nil
	}
	k := int(sparsity * float64(total))
	var threshold float32
	if k > 0 {
		threshold = kthMagnitude(g, k)
	}

	stats, err := g.Stats(1)
	if err != nil {
		return rep, err
	}
	macsByNode := make(map[string]int64, len(stats.Nodes))
	for _, ns := range stats.Nodes {
		macsByNode[ns.Name] = ns.MACs
	}
	rep.MACsBefore = stats.MACs
	rep.MACsAfter = stats.MACs

	for _, n := range g.Nodes {
		if !prunable(n) {
			continue
		}
		w := n.Weight(nn.WeightKey)
		vals := w.Float32s()
		layerZero := 0
		for i, v := range vals {
			rep.TotalWeights++
			if float32(math.Abs(float64(v))) <= threshold && k > 0 {
				vals[i] = 0
				rep.Zeroed++
				layerZero++
			}
		}
		nw := tensor.New(tensor.FP32, w.Shape...)
		copy(nw.F32, vals)
		n.SetWeight(nn.WeightKey, nw)
		layerSparsity := float64(layerZero) / float64(len(vals))
		rep.PerLayer[n.Name] = layerSparsity
		// Effective MACs shrink proportionally to zeroed weights.
		saved := int64(layerSparsity * float64(macsByNode[n.Name]))
		rep.MACsAfter -= saved
	}
	return rep, nil
}

// kthMagnitude returns the k-th smallest (1-based) weight magnitude
// across all prunable tensors. Non-negative IEEE-754 floats order
// exactly like their bit patterns, so a radix-style counting selection
// over the high then low 16 bits finds the precise order statistic in
// O(n) — the same value a full sort would put at index k-1.
func kthMagnitude(g *nn.Graph, k int) float32 {
	const magMask = 0x7fffffff // clears the sign: |v| bit pattern
	forEachMag := func(fn func(bits uint32)) {
		for _, n := range g.Nodes {
			if !prunable(n) {
				continue
			}
			for _, v := range n.Weight(nn.WeightKey).Float32s() {
				fn(math.Float32bits(v) & magMask)
			}
		}
	}
	coarse := make([]int, 1<<16)
	forEachMag(func(bits uint32) { coarse[bits>>16]++ })
	rank := k
	hiBucket := -1
	for i, c := range coarse {
		if rank <= c {
			hiBucket = i
			break
		}
		rank -= c
	}
	if hiBucket < 0 {
		return math.MaxFloat32 // k beyond population; callers prevent this
	}
	fine := make([]int, 1<<16)
	forEachMag(func(bits uint32) {
		if int(bits>>16) == hiBucket {
			fine[bits&0xffff]++
		}
	})
	for i, c := range fine {
		if rank <= c {
			return math.Float32frombits(uint32(hiBucket)<<16 | uint32(i))
		}
		rank -= c
	}
	return math.MaxFloat32
}

// ChannelPrune implements structured pruning: for each prunable conv it
// zeroes the output channels with the smallest L1 norms until the target
// channel sparsity is reached. Zeroed channels keep their place in the
// tensor (shapes are unchanged) but hardware models may skip them, which
// is exactly why structured pruning translates to real speed-ups where
// unstructured pruning often does not (§III, [8]).
func ChannelPrune(g *nn.Graph, channelSparsity float64) (PruneReport, error) {
	if channelSparsity < 0 || channelSparsity >= 1 {
		return PruneReport{}, fmt.Errorf("optimize: channel sparsity %v outside [0,1)", channelSparsity)
	}
	rep := PruneReport{PerLayer: make(map[string]float64)}
	stats, err := g.Stats(1)
	if err != nil {
		return rep, err
	}
	macsByNode := make(map[string]int64, len(stats.Nodes))
	for _, ns := range stats.Nodes {
		macsByNode[ns.Name] = ns.MACs
	}
	rep.MACsBefore = stats.MACs
	rep.MACsAfter = stats.MACs

	for _, n := range g.Nodes {
		// Structured pruning of the classifier output would remove
		// classes; restrict to convolutions.
		if n.Op != nn.OpConv && n.Op != nn.OpDepthwiseConv {
			continue
		}
		w := n.Weight(nn.WeightKey)
		if w == nil {
			continue
		}
		outC := w.Shape[0]
		perOut := w.NumElements() / outC
		kill := int(channelSparsity * float64(outC))
		vals := w.Float32s()
		rep.TotalWeights += int64(len(vals))
		if kill == 0 {
			rep.PerLayer[n.Name] = 0
			continue
		}
		type chNorm struct {
			ch   int
			norm float64
		}
		norms := make([]chNorm, outC)
		for oc := 0; oc < outC; oc++ {
			var s float64
			for i := 0; i < perOut; i++ {
				s += math.Abs(float64(vals[oc*perOut+i]))
			}
			norms[oc] = chNorm{oc, s}
		}
		sort.Slice(norms, func(i, j int) bool { return norms[i].norm < norms[j].norm })
		for _, cn := range norms[:kill] {
			for i := 0; i < perOut; i++ {
				vals[cn.ch*perOut+i] = 0
			}
			rep.Zeroed += int64(perOut)
		}
		nw := tensor.New(tensor.FP32, w.Shape...)
		copy(nw.F32, vals)
		n.SetWeight(nn.WeightKey, nw)
		layerSparsity := float64(kill) / float64(outC)
		rep.PerLayer[n.Name] = layerSparsity
		rep.MACsAfter -= int64(layerSparsity * float64(macsByNode[n.Name]))
	}
	return rep, nil
}

// SparseEncodedBytes returns the storage for all prunable weights under a
// compressed sparse encoding: non-zero values at valueBits each plus a
// 4-bit relative index per non-zero (the Deep Compression scheme [7]).
func SparseEncodedBytes(g *nn.Graph, valueBits int) int64 {
	const indexBits = 4
	var bits int64
	for _, n := range g.Nodes {
		if !prunable(n) {
			continue
		}
		vals := n.Weight(nn.WeightKey).Float32s()
		run := 0
		for _, v := range vals {
			if v == 0 {
				run++
				// The 4-bit relative index overflows every 16 zeros and
				// spends one padding symbol.
				if run == 16 {
					bits += int64(indexBits + valueBits)
					run = 0
				}
				continue
			}
			bits += int64(indexBits + valueBits)
			run = 0
		}
		// Biases stay dense at 32 bits.
		if bTensor := n.Weight(nn.BiasKey); bTensor != nil {
			bits += int64(bTensor.NumElements()) * 32
		}
	}
	return (bits + 7) / 8
}
