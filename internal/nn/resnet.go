package nn

// ResNet50 builds the standard ResNet-50 classifier for inputSize×inputSize
// RGB inputs (224 in the paper's evaluation). Structure: 7×7/2 stem,
// 3-4-6-3 bottleneck stages with expansion 4, global average pooling and a
// 1000-way classifier.
func ResNet50(inputSize int, opts BuildOptions) *Graph {
	b := NewBuilder("resnet50", opts)
	x := b.Input("input", 3, inputSize, inputSize)

	x = b.ConvBNAct(x, 3, 64, 7, 2, 3, OpReLU)
	x = b.MaxPool(x, 3, 2, 1)

	cfg := []struct {
		blocks, width, stride int
	}{
		{3, 64, 1},
		{4, 128, 2},
		{6, 256, 2},
		{3, 512, 2},
	}
	inC := 64
	for _, st := range cfg {
		for i := 0; i < st.blocks; i++ {
			stride := 1
			if i == 0 {
				stride = st.stride
			}
			x, inC = bottleneck(b, x, inC, st.width, stride)
		}
	}

	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, inC, 1000)
	x = b.Softmax(x)
	return b.Graph(x)
}

// bottleneck appends one ResNet bottleneck block (1×1 reduce, 3×3, 1×1
// expand ×4) with an identity or projection shortcut. It returns the
// output node and its channel count.
func bottleneck(b *Builder, x string, inC, width, stride int) (string, int) {
	outC := width * 4
	y := b.ConvBNAct(x, inC, width, 1, 1, 0, OpReLU)
	y = b.ConvBNAct(y, width, width, 3, stride, 1, OpReLU)
	y = b.ConvNB(y, width, outC, 1, 1, 0)
	y = b.BN(y, outC)

	shortcut := x
	if inC != outC || stride != 1 {
		shortcut = b.ConvNB(x, inC, outC, 1, stride, 0)
		shortcut = b.BN(shortcut, outC)
	}
	sum := b.Add(y, shortcut)
	return b.Act(sum, OpReLU), outC
}
