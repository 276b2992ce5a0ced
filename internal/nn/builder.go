package nn

import (
	"fmt"
	"math"
	"math/rand"

	"vedliot/internal/tensor"
)

// BuildOptions configure model construction.
type BuildOptions struct {
	// Weights controls whether weight tensors are materialized. Model
	// structure and statistics are available either way; the reference
	// interpreter requires materialized weights. Large survey models
	// (YoloV4 has ~64M parameters) are typically built without weights.
	Weights bool
	// Seed drives deterministic He-style weight initialization.
	Seed int64
}

// Builder provides a fluent API for constructing graphs. Methods return
// the name of the node they append, so layers chain naturally.
type Builder struct {
	g    *Graph
	rng  *rand.Rand
	opts BuildOptions
	seq  int
}

// NewBuilder creates a builder for a fresh graph.
func NewBuilder(name string, opts BuildOptions) *Builder {
	return &Builder{
		g:    NewGraph(name),
		rng:  rand.New(rand.NewSource(opts.Seed)),
		opts: opts,
	}
}

// Graph finalizes the build: the given nodes become the declared outputs.
func (b *Builder) Graph(outputs ...string) *Graph {
	b.g.Outputs = append([]string(nil), outputs...)
	return b.g
}

func (b *Builder) name(op string) string {
	b.seq++
	return fmt.Sprintf("%s_%d", op, b.seq)
}

func (b *Builder) add(n *Node) string {
	b.g.MustAdd(n)
	return n.Name
}

func (b *Builder) heNormal(shape tensor.Shape, fanIn int) *tensor.Tensor {
	t := tensor.New(tensor.FP32, shape...)
	std := math.Sqrt(2 / float64(fanIn))
	for i := range t.F32 {
		t.F32[i] = float32(b.rng.NormFloat64() * std)
	}
	return t
}

// Input declares a named graph input with shape dims (excluding batch).
func (b *Builder) Input(name string, dims ...int) string {
	return b.add(&Node{Name: name, Op: OpInput, Attrs: Attrs{Shape: dims}})
}

// conv appends a convolution; inC must match the producing node.
func (b *Builder) conv(x string, op OpType, inC, outC, kh, kw, stride, pad, groups int, bias bool) string {
	n := &Node{
		Name:   b.name("conv"),
		Op:     op,
		Inputs: []string{x},
		Attrs: Attrs{
			KernelH: kh, KernelW: kw,
			StrideH: stride, StrideW: stride,
			PadH: pad, PadW: pad,
			Groups: groups, OutC: outC, Bias: bias,
		},
	}
	if b.opts.Weights {
		fanIn := inC / groups * kh * kw
		n.SetWeight(WeightKey, b.heNormal(tensor.Shape{outC, inC / groups, kh, kw}, fanIn))
		if bias {
			n.SetWeight(BiasKey, tensor.New(tensor.FP32, outC))
		}
	}
	return b.add(n)
}

// Conv appends a square-kernel convolution with bias.
func (b *Builder) Conv(x string, inC, outC, k, stride, pad int) string {
	return b.conv(x, OpConv, inC, outC, k, k, stride, pad, 1, true)
}

// ConvNB appends a convolution without bias (typical before BatchNorm).
func (b *Builder) ConvNB(x string, inC, outC, k, stride, pad int) string {
	return b.conv(x, OpConv, inC, outC, k, k, stride, pad, 1, false)
}

// DWConv appends a depthwise convolution (no bias).
func (b *Builder) DWConv(x string, c, k, stride, pad int) string {
	n := &Node{
		Name:   b.name("dwconv"),
		Op:     OpDepthwiseConv,
		Inputs: []string{x},
		Attrs: Attrs{
			KernelH: k, KernelW: k,
			StrideH: stride, StrideW: stride,
			PadH: pad, PadW: pad,
			OutC: c,
		},
	}
	if b.opts.Weights {
		n.SetWeight(WeightKey, b.heNormal(tensor.Shape{c, 1, k, k}, k*k))
	}
	return b.add(n)
}

// BN appends batch normalization over c channels.
func (b *Builder) BN(x string, c int) string {
	n := &Node{
		Name:   b.name("bn"),
		Op:     OpBatchNorm,
		Inputs: []string{x},
		Attrs:  Attrs{OutC: c, Eps: 1e-5},
	}
	if b.opts.Weights {
		gamma := tensor.New(tensor.FP32, c)
		variance := tensor.New(tensor.FP32, c)
		for i := 0; i < c; i++ {
			gamma.F32[i] = 1
			variance.F32[i] = 1
		}
		n.SetWeight(GammaKey, gamma)
		n.SetWeight(BetaKey, tensor.New(tensor.FP32, c))
		n.SetWeight(MeanKey, tensor.New(tensor.FP32, c))
		n.SetWeight(VarKey, variance)
	}
	return b.add(n)
}

// Act appends an activation node of the given kind.
func (b *Builder) Act(x string, op OpType) string {
	n := &Node{Name: b.name("act"), Op: op, Inputs: []string{x}}
	if op == OpLeakyReLU {
		n.Attrs.Alpha = 0.1
	}
	return b.add(n)
}

// ConvBNAct is the ubiquitous conv → batch-norm → activation block.
func (b *Builder) ConvBNAct(x string, inC, outC, k, stride, pad int, act OpType) string {
	y := b.ConvNB(x, inC, outC, k, stride, pad)
	y = b.BN(y, outC)
	return b.Act(y, act)
}

// DWConvBNAct is the depthwise variant of ConvBNAct.
func (b *Builder) DWConvBNAct(x string, c, k, stride, pad int, act OpType) string {
	y := b.DWConv(x, c, k, stride, pad)
	y = b.BN(y, c)
	return b.Act(y, act)
}

// Dense appends a fully connected layer with bias.
func (b *Builder) Dense(x string, in, out int) string {
	n := &Node{
		Name:   b.name("dense"),
		Op:     OpDense,
		Inputs: []string{x},
		Attrs:  Attrs{OutC: out, Bias: true},
	}
	if b.opts.Weights {
		n.SetWeight(WeightKey, b.heNormal(tensor.Shape{out, in}, in))
		n.SetWeight(BiasKey, tensor.New(tensor.FP32, out))
	}
	return b.add(n)
}

// MaxPool appends a max-pooling layer.
func (b *Builder) MaxPool(x string, k, stride, pad int) string {
	return b.add(&Node{
		Name:   b.name("maxpool"),
		Op:     OpMaxPool,
		Inputs: []string{x},
		Attrs:  Attrs{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
	})
}

// GlobalAvgPool appends global average pooling to 1x1 spatial.
func (b *Builder) GlobalAvgPool(x string) string {
	return b.add(&Node{Name: b.name("gap"), Op: OpGlobalAvgPool, Inputs: []string{x}})
}

// Add appends an elementwise addition of the given nodes.
func (b *Builder) Add(xs ...string) string {
	return b.add(&Node{Name: b.name("add"), Op: OpAdd, Inputs: xs})
}

// Mul appends an elementwise (or channel-broadcast) multiplication.
func (b *Builder) Mul(xs ...string) string {
	return b.add(&Node{Name: b.name("mul"), Op: OpMul, Inputs: xs})
}

// Concat appends channel concatenation.
func (b *Builder) Concat(xs ...string) string {
	return b.add(&Node{Name: b.name("concat"), Op: OpConcat, Inputs: xs})
}

// Upsample appends nearest-neighbour upsampling by an integer factor.
func (b *Builder) Upsample(x string, scale int) string {
	return b.add(&Node{Name: b.name("up"), Op: OpUpsample, Inputs: []string{x}, Attrs: Attrs{Scale: scale}})
}

// Flatten appends a flatten to [N, features].
func (b *Builder) Flatten(x string) string {
	return b.add(&Node{Name: b.name("flatten"), Op: OpFlatten, Inputs: []string{x}})
}

// Softmax appends a softmax over the feature dimension.
func (b *Builder) Softmax(x string) string {
	return b.add(&Node{Name: b.name("softmax"), Op: OpSoftmax, Inputs: []string{x}})
}
