// Package nn defines the neural-network graph intermediate representation
// used across the VEDLIoT toolchain.
//
// The IR mirrors the role ONNX plays in the paper (Section III): a common
// operator-level representation that optimization passes rewrite and that
// backends (the reference interpreter, the accelerator performance models,
// the Kenning-style deployment pipeline) consume. Graphs carry enough
// structure for exact MAC/parameter/traffic accounting, which drives the
// Fig. 3/4 performance evaluation.
package nn

import (
	"fmt"
	"sort"

	"vedliot/internal/tensor"
)

// OpType enumerates the supported operator kinds.
type OpType int

// Operator kinds. The set covers the models evaluated in the paper
// (ResNet50, MobileNetV3, YoloV4) plus the small use-case networks.
const (
	OpInput OpType = iota
	OpConv
	OpDepthwiseConv
	OpDense
	OpBatchNorm
	OpReLU
	OpReLU6
	OpLeakyReLU
	OpSigmoid
	OpTanh
	OpHSwish
	OpHSigmoid
	OpMish
	OpMaxPool
	OpAvgPool
	OpGlobalAvgPool
	OpAdd
	OpMul
	OpConcat
	OpUpsample
	OpSoftmax
	OpFlatten
	OpIdentity
	numOpTypes
)

var opNames = [...]string{
	OpInput:         "Input",
	OpConv:          "Conv",
	OpDepthwiseConv: "DepthwiseConv",
	OpDense:         "Dense",
	OpBatchNorm:     "BatchNorm",
	OpReLU:          "ReLU",
	OpReLU6:         "ReLU6",
	OpLeakyReLU:     "LeakyReLU",
	OpSigmoid:       "Sigmoid",
	OpTanh:          "Tanh",
	OpHSwish:        "HSwish",
	OpHSigmoid:      "HSigmoid",
	OpMish:          "Mish",
	OpMaxPool:       "MaxPool",
	OpAvgPool:       "AvgPool",
	OpGlobalAvgPool: "GlobalAvgPool",
	OpAdd:           "Add",
	OpMul:           "Mul",
	OpConcat:        "Concat",
	OpUpsample:      "Upsample",
	OpSoftmax:       "Softmax",
	OpFlatten:       "Flatten",
	OpIdentity:      "Identity",
}

// String returns the operator name.
func (o OpType) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OpType(%d)", int(o))
}

// ParseOpType is the inverse of OpType.String.
func ParseOpType(s string) (OpType, error) {
	for i, n := range opNames {
		if n == s {
			return OpType(i), nil
		}
	}
	return 0, fmt.Errorf("nn: unknown op type %q", s)
}

// Attrs carries per-operator attributes. Each operator reads the subset it
// needs; unused fields are zero.
type Attrs struct {
	KernelH, KernelW int     // conv/pool window
	StrideH, StrideW int     // conv/pool stride
	PadH, PadW       int     // symmetric zero padding
	Groups           int     // grouped convolution (1 = dense conv)
	OutC             int     // conv output channels / dense output features
	Alpha            float32 // LeakyReLU slope
	Scale            int     // upsample integer factor
	Shape            []int   // input node shape (C,H,W) or (features,)
	Eps              float32 // batch-norm epsilon
	Bias             bool    // layer has a bias term (drives parameter
	// accounting when weights are not materialized)
}

// Standard weight-map keys.
const (
	WeightKey = "W"     // conv filters [outC, inC/groups, kh, kw]; dense [out, in]
	BiasKey   = "B"     // [outC]
	GammaKey  = "gamma" // batch-norm scale [C]
	BetaKey   = "beta"  // batch-norm shift [C]
	MeanKey   = "mean"  // batch-norm running mean [C]
	VarKey    = "var"   // batch-norm running variance [C]
)

// Node is one operator instance in a graph.
type Node struct {
	Name    string
	Op      OpType
	Inputs  []string
	Attrs   Attrs
	Weights map[string]*tensor.Tensor
}

// Weight returns the named weight tensor or nil.
func (n *Node) Weight(key string) *tensor.Tensor {
	if n.Weights == nil {
		return nil
	}
	return n.Weights[key]
}

// SetWeight stores a weight tensor under key.
func (n *Node) SetWeight(key string, t *tensor.Tensor) {
	if n.Weights == nil {
		n.Weights = make(map[string]*tensor.Tensor)
	}
	n.Weights[key] = t
}

// WeightKeys returns the node's weight keys in sorted order.
func (n *Node) WeightKeys() []string {
	keys := make([]string, 0, len(n.Weights))
	for k := range n.Weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Graph is a directed acyclic graph of operators.
type Graph struct {
	Name    string
	Nodes   []*Node
	Inputs  []string
	Outputs []string

	byName map[string]*Node
}

// NewGraph creates an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]*Node)}
}

// Add appends a node; the name must be unique within the graph.
func (g *Graph) Add(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("nn: node with empty name")
	}
	if _, dup := g.byName[n.Name]; dup {
		return fmt.Errorf("nn: duplicate node %q", n.Name)
	}
	g.Nodes = append(g.Nodes, n)
	g.byName[n.Name] = n
	if n.Op == OpInput {
		g.Inputs = append(g.Inputs, n.Name)
	}
	return nil
}

// MustAdd is Add that panics; for static model builders.
func (g *Graph) MustAdd(n *Node) *Node {
	if err := g.Add(n); err != nil {
		panic(err)
	}
	return n
}

// Node returns the named node or nil.
func (g *Graph) Node(name string) *Node { return g.byName[name] }

// Remove deletes nodes by name. Callers are responsible for rewiring
// consumers first (see the optimize package).
func (g *Graph) Remove(names ...string) {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	kept := g.Nodes[:0]
	for _, n := range g.Nodes {
		if drop[n.Name] {
			delete(g.byName, n.Name)
			continue
		}
		kept = append(kept, n)
	}
	g.Nodes = kept
	ins := g.Inputs[:0]
	for _, n := range g.Inputs {
		if !drop[n] {
			ins = append(ins, n)
		}
	}
	g.Inputs = ins
}

// Validate checks structural invariants: unique names, known ops,
// resolvable inputs, acyclicity and declared outputs.
func (g *Graph) Validate() error {
	seen := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if seen[n.Name] {
			return fmt.Errorf("nn: duplicate node %q", n.Name)
		}
		seen[n.Name] = true
		if n.Op < 0 || n.Op >= numOpTypes {
			return fmt.Errorf("nn: node %q has invalid op %d", n.Name, int(n.Op))
		}
		if n.Op == OpInput && len(n.Inputs) != 0 {
			return fmt.Errorf("nn: input node %q must have no inputs", n.Name)
		}
		if n.Op != OpInput && len(n.Inputs) == 0 {
			return fmt.Errorf("nn: node %q has no inputs", n.Name)
		}
		for _, in := range n.Inputs {
			if g.byName[in] == nil {
				return fmt.Errorf("nn: node %q references unknown input %q", n.Name, in)
			}
		}
	}
	for _, out := range g.Outputs {
		if g.byName[out] == nil {
			return fmt.Errorf("nn: declared output %q does not exist", out)
		}
	}
	if len(g.Outputs) == 0 {
		return fmt.Errorf("nn: graph %q declares no outputs", g.Name)
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// TopoSort returns the nodes in a topological order (inputs before
// consumers) or an error if the graph has a cycle.
//
// The order is fully deterministic and depends only on the graph's
// structure, not on node insertion order: nodes are sorted by longest
// path from the graph's entries, with ties broken by node name. An edge
// u→v implies depth(v) > depth(u), so the sort is a valid topological
// order — and the same graph always lowers to the same IR dump, step
// list and arena layout, byte for byte.
func (g *Graph) TopoSort() ([]*Node, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(g.Nodes))
	depth := make(map[string]int, len(g.Nodes))
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n.Name] {
		case gray:
			return fmt.Errorf("nn: cycle through node %q", n.Name)
		case black:
			return nil
		}
		state[n.Name] = gray
		d := 0
		for _, in := range n.Inputs {
			dep := g.byName[in]
			if dep == nil {
				return fmt.Errorf("nn: node %q references unknown input %q", n.Name, in)
			}
			if err := visit(dep); err != nil {
				return err
			}
			if dd := depth[dep.Name] + 1; dd > d {
				d = dd
			}
		}
		state[n.Name] = black
		depth[n.Name] = d
		return nil
	}
	for _, n := range g.Nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	order := append([]*Node(nil), g.Nodes...)
	sort.Slice(order, func(i, j int) bool {
		di, dj := depth[order[i].Name], depth[order[j].Name]
		if di != dj {
			return di < dj
		}
		return order[i].Name < order[j].Name
	})
	return order, nil
}

// Consumers returns, for each node name, the names of nodes consuming it.
func (g *Graph) Consumers() map[string][]string {
	c := make(map[string][]string, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			c[in] = append(c[in], n.Name)
		}
	}
	return c
}

// NumParams returns the total parameter count across all weights.
func (g *Graph) NumParams() int64 {
	var total int64
	for _, n := range g.Nodes {
		for _, w := range n.Weights {
			total += int64(w.NumElements())
		}
	}
	return total
}

// WeightBytes returns the total weight storage in bytes at current
// precisions.
func (g *Graph) WeightBytes() int64 {
	var total int64
	for _, n := range g.Nodes {
		for _, w := range n.Weights {
			total += int64(w.SizeBytes())
		}
	}
	return total
}

// Clone returns a deep copy of the graph, including weights.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Name)
	c.Outputs = append([]string(nil), g.Outputs...)
	for _, n := range g.Nodes {
		cn := &Node{
			Name:   n.Name,
			Op:     n.Op,
			Inputs: append([]string(nil), n.Inputs...),
			Attrs:  n.Attrs,
		}
		cn.Attrs.Shape = append([]int(nil), n.Attrs.Shape...)
		if n.Weights != nil {
			cn.Weights = make(map[string]*tensor.Tensor, len(n.Weights))
			for k, w := range n.Weights {
				cn.Weights[k] = w.Clone()
			}
		}
		c.Nodes = append(c.Nodes, cn)
		c.byName[cn.Name] = cn
		if cn.Op == OpInput {
			c.Inputs = append(c.Inputs, cn.Name)
		}
	}
	return c
}
