package nn

import (
	"fmt"
	"strings"

	"vedliot/internal/tensor"
)

// NodeStats summarizes the compute and memory demand of one node.
type NodeStats struct {
	Name   string
	Op     OpType
	MACs   int64 // multiply-accumulate operations
	Ops    int64 // total elementary operations (2*MACs for MAC-dominated ops)
	Params int64 // weight elements
	// ActivationBytes is the output activation footprint at FP32.
	ActivationBytes int64
	// WeightBytes is the weight footprint at the stored precision.
	WeightBytes int64
}

// GraphStats aggregates NodeStats over a graph for a given batch size.
type GraphStats struct {
	Batch  int
	Nodes  []NodeStats
	MACs   int64
	Ops    int64
	Params int64
	// PeakActivationBytes approximates the largest single activation
	// (a lower bound on required on-chip buffering).
	PeakActivationBytes  int64
	TotalActivationBytes int64
	WeightBytes          int64
}

// GMACs returns total multiply-accumulates in units of 1e9.
func (s GraphStats) GMACs() float64 { return float64(s.MACs) / 1e9 }

// GOPs returns total operations (2*MACs for linear layers) in units of 1e9.
// This matches the "GOPS" accounting used in the paper's Figs. 3 and 4
// (operations, counting multiply and add separately).
func (s GraphStats) GOPs() float64 { return float64(s.Ops) / 1e9 }

// Stats computes per-node and aggregate statistics at a batch size over
// shapes it infers per call: it writes nothing to the graph, so it is
// safe on a graph other goroutines are reading.
func (g *Graph) Stats(batch int) (GraphStats, error) {
	order, shapes, err := g.shapesAt(batch)
	if err != nil {
		return GraphStats{}, err
	}
	gs := GraphStats{Batch: batch}
	for _, n := range order {
		ns := g.nodeStats(n, shapes)
		gs.Nodes = append(gs.Nodes, ns)
		gs.MACs += ns.MACs
		gs.Ops += ns.Ops
		gs.Params += ns.Params
		gs.WeightBytes += ns.WeightBytes
		gs.TotalActivationBytes += ns.ActivationBytes
		if ns.ActivationBytes > gs.PeakActivationBytes {
			gs.PeakActivationBytes = ns.ActivationBytes
		}
	}
	return gs, nil
}

// nodeStats reads n's output shape and its first input's from shapes,
// which shapesAt has filled and checked for every node.
func (g *Graph) nodeStats(n *Node, shapes map[*Node]tensor.Shape) NodeStats {
	outEl := int64(shapes[n].NumElements())
	var in tensor.Shape
	if len(n.Inputs) > 0 {
		in = shapes[g.byName[n.Inputs[0]]]
	}
	ns := NodeStats{
		Name:            n.Name,
		Op:              n.Op,
		ActivationBytes: outEl * 4,
	}
	if len(n.Weights) > 0 {
		for _, w := range n.Weights {
			ns.Params += int64(w.NumElements())
			ns.WeightBytes += int64(w.SizeBytes())
		}
	} else {
		// Weights not materialized: derive the count from attributes
		// (FP32 storage assumed).
		ns.Params = phantomParams(n, in)
		ns.WeightBytes = ns.Params * 4
	}
	a := n.Attrs
	switch n.Op {
	case OpConv, OpDepthwiseConv:
		groups := int64(a.Groups)
		if groups <= 0 {
			groups = 1
		}
		if n.Op == OpDepthwiseConv {
			groups = int64(in[1])
		}
		macsPerOut := int64(in[1]) / groups * int64(a.KernelH) * int64(a.KernelW)
		ns.MACs = outEl * macsPerOut
		ns.Ops = 2 * ns.MACs
		if n.Weight(BiasKey) != nil {
			ns.Ops += outEl
		}
	case OpDense:
		ns.MACs = outEl * int64(in[1])
		ns.Ops = 2 * ns.MACs
		if n.Weight(BiasKey) != nil {
			ns.Ops += outEl
		}
	case OpBatchNorm:
		// Folded scale+shift: one MAC per element.
		ns.MACs = outEl
		ns.Ops = 2 * outEl
	case OpMaxPool, OpAvgPool:
		ns.Ops = outEl * int64(a.KernelH) * int64(a.KernelW)
	case OpGlobalAvgPool:
		ns.Ops = int64(in.NumElements())
	case OpAdd, OpMul:
		ns.Ops = outEl * int64(len(n.Inputs)-1)
	case OpReLU, OpReLU6, OpLeakyReLU, OpIdentity, OpFlatten, OpConcat, OpUpsample, OpInput:
		// Data movement / comparison only; negligible arithmetic.
		if n.Op != OpInput && n.Op != OpFlatten && n.Op != OpIdentity {
			ns.Ops = outEl
		}
	case OpSigmoid, OpTanh, OpHSwish, OpHSigmoid, OpMish, OpSoftmax:
		// Transcendental activations: budget a small constant per element.
		const opsPerElement = 4
		ns.Ops = opsPerElement * outEl
	}
	return ns
}

// phantomParams derives the parameter count of a weight-less node from
// its attributes and input shape, matching what materialization would
// allocate.
func phantomParams(n *Node, in tensor.Shape) int64 {
	a := n.Attrs
	switch n.Op {
	case OpConv, OpDepthwiseConv:
		groups := int64(a.Groups)
		if groups <= 0 {
			groups = 1
		}
		outC := int64(a.OutC)
		if n.Op == OpDepthwiseConv {
			groups = int64(in[1])
			if outC == 0 {
				outC = int64(in[1])
			}
		}
		p := outC * int64(in[1]) / groups * int64(a.KernelH) * int64(a.KernelW)
		if a.Bias {
			p += outC
		}
		return p
	case OpDense:
		p := int64(a.OutC) * int64(in[1])
		if a.Bias {
			p += int64(a.OutC)
		}
		return p
	case OpBatchNorm:
		return 4 * int64(in[1]) // gamma, beta, mean, var
	}
	return 0
}

// Summary renders a human-readable per-layer table, truncated to at most
// maxRows body rows (0 = unlimited).
func (s GraphStats) Summary(maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-14s %14s %12s %14s\n", "node", "op", "MACs", "params", "act bytes")
	rows := s.Nodes
	truncated := 0
	if maxRows > 0 && len(rows) > maxRows {
		truncated = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	for _, n := range rows {
		fmt.Fprintf(&b, "%-28s %-14s %14d %12d %14d\n", n.Name, n.Op, n.MACs, n.Params, n.ActivationBytes)
	}
	if truncated > 0 {
		fmt.Fprintf(&b, "... (%d more rows)\n", truncated)
	}
	fmt.Fprintf(&b, "TOTAL batch=%d: %.3f GMACs, %.3f GOPs, %.2fM params, %.2f MiB weights\n",
		s.Batch, s.GMACs(), s.GOPs(), float64(s.Params)/1e6, float64(s.WeightBytes)/(1<<20))
	return b.String()
}
