package nn

import (
	"strings"
	"testing"

	"vedliot/internal/tensor"
)

func TestOpTypeStringRoundTrip(t *testing.T) {
	for op := OpType(0); op < numOpTypes; op++ {
		s := op.String()
		if strings.HasPrefix(s, "OpType(") {
			t.Fatalf("op %d has no name", int(op))
		}
		back, err := ParseOpType(s)
		if err != nil || back != op {
			t.Errorf("ParseOpType(%q) = %v, %v", s, back, err)
		}
	}
	if _, err := ParseOpType("Bogus"); err == nil {
		t.Error("ParseOpType accepted unknown name")
	}
}

func TestGraphAddAndLookup(t *testing.T) {
	g := NewGraph("g")
	if err := g.Add(&Node{Name: "in", Op: OpInput, Attrs: Attrs{Shape: []int{3}}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(&Node{Name: "in", Op: OpInput}); err == nil {
		t.Error("Add accepted duplicate name")
	}
	if err := g.Add(&Node{Op: OpInput}); err == nil {
		t.Error("Add accepted empty name")
	}
	if g.Node("in") == nil || g.Node("nope") != nil {
		t.Error("Node lookup broken")
	}
	if len(g.Inputs) != 1 || g.Inputs[0] != "in" {
		t.Errorf("Inputs = %v", g.Inputs)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	// Unknown input reference.
	g := NewGraph("g")
	g.MustAdd(&Node{Name: "in", Op: OpInput, Attrs: Attrs{Shape: []int{3}}})
	g.MustAdd(&Node{Name: "relu", Op: OpReLU, Inputs: []string{"ghost"}})
	g.Outputs = []string{"relu"}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted unknown input reference")
	}

	// No outputs.
	g2 := NewGraph("g2")
	g2.MustAdd(&Node{Name: "in", Op: OpInput, Attrs: Attrs{Shape: []int{3}}})
	if err := g2.Validate(); err == nil {
		t.Error("Validate accepted graph without outputs")
	}

	// Output that doesn't exist.
	g3 := NewGraph("g3")
	g3.MustAdd(&Node{Name: "in", Op: OpInput, Attrs: Attrs{Shape: []int{3}}})
	g3.Outputs = []string{"ghost"}
	if err := g3.Validate(); err == nil {
		t.Error("Validate accepted ghost output")
	}

	// Non-input node without inputs.
	g4 := NewGraph("g4")
	g4.MustAdd(&Node{Name: "r", Op: OpReLU})
	g4.Outputs = []string{"r"}
	if err := g4.Validate(); err == nil {
		t.Error("Validate accepted op without inputs")
	}

	// Input node with inputs.
	g5 := NewGraph("g5")
	g5.MustAdd(&Node{Name: "a", Op: OpInput, Attrs: Attrs{Shape: []int{3}}})
	g5.MustAdd(&Node{Name: "b", Op: OpInput, Inputs: []string{"a"}})
	g5.Outputs = []string{"b"}
	if err := g5.Validate(); err == nil {
		t.Error("Validate accepted input node with inputs")
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := NewGraph("cyc")
	g.MustAdd(&Node{Name: "a", Op: OpReLU, Inputs: []string{"b"}})
	g.MustAdd(&Node{Name: "b", Op: OpReLU, Inputs: []string{"a"}})
	g.Outputs = []string{"a"}
	if _, err := g.TopoSort(); err == nil {
		t.Error("TopoSort missed cycle")
	}
}

func TestTopoSortOrder(t *testing.T) {
	g := NewGraph("order")
	g.MustAdd(&Node{Name: "c", Op: OpAdd, Inputs: []string{"a", "b"}})
	// Deliberately add dependencies after the consumer.
	g.MustAdd(&Node{Name: "a", Op: OpInput, Attrs: Attrs{Shape: []int{1}}})
	g.MustAdd(&Node{Name: "b", Op: OpInput, Attrs: Attrs{Shape: []int{1}}})
	g.Outputs = []string{"c"}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	if pos["a"] > pos["c"] || pos["b"] > pos["c"] {
		t.Errorf("bad order: %v", pos)
	}
}

func TestConsumers(t *testing.T) {
	b := NewBuilder("t", BuildOptions{})
	in := b.Input("in", 3, 8, 8)
	c1 := b.ConvNB(in, 3, 4, 3, 1, 1)
	c2 := b.ConvNB(in, 3, 4, 3, 1, 1)
	sum := b.Add(c1, c2)
	g := b.Graph(sum)
	cons := g.Consumers()
	if len(cons[in]) != 2 {
		t.Errorf("input consumers = %v", cons[in])
	}
	if len(cons[c1]) != 1 || cons[c1][0] != sum {
		t.Errorf("conv consumers = %v", cons[c1])
	}
}

func TestRemoveAndRebuild(t *testing.T) {
	g := NewGraph("r")
	g.MustAdd(&Node{Name: "in", Op: OpInput, Attrs: Attrs{Shape: []int{3}}})
	g.MustAdd(&Node{Name: "id", Op: OpIdentity, Inputs: []string{"in"}})
	g.Remove("id")
	if g.Node("id") != nil || len(g.Nodes) != 1 {
		t.Error("Remove left node behind")
	}
}

func TestShapeInferenceConv(t *testing.T) {
	b := NewBuilder("t", BuildOptions{})
	in := b.Input("in", 3, 224, 224)
	c := b.ConvNB(in, 3, 64, 7, 2, 3)
	g := b.Graph(c)
	if err := g.InferShapes(2); err != nil {
		t.Fatal(err)
	}
	want := tensor.Shape{2, 64, 112, 112}
	if !g.Node(c).OutShape.Equal(want) {
		t.Errorf("conv shape = %v, want %v", g.Node(c).OutShape, want)
	}
}

func TestShapeInferencePoolFlattenDense(t *testing.T) {
	b := NewBuilder("t", BuildOptions{})
	in := b.Input("in", 8, 16, 16)
	p := b.MaxPool(in, 2, 2, 0)
	f := b.Flatten(p)
	d := b.Dense(f, 8*8*8, 10)
	s := b.Softmax(d)
	g := b.Graph(s)
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	if !g.Node(p).OutShape.Equal(tensor.Shape{1, 8, 8, 8}) {
		t.Errorf("pool shape = %v", g.Node(p).OutShape)
	}
	if !g.Node(f).OutShape.Equal(tensor.Shape{1, 512}) {
		t.Errorf("flatten shape = %v", g.Node(f).OutShape)
	}
	if !g.Node(s).OutShape.Equal(tensor.Shape{1, 10}) {
		t.Errorf("softmax shape = %v", g.Node(s).OutShape)
	}
}

func TestShapeInferenceConcatUpsample(t *testing.T) {
	b := NewBuilder("t", BuildOptions{})
	in := b.Input("in", 4, 8, 8)
	u := b.Upsample(in, 2)
	g := b.Graph(u)
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	if !g.Node(u).OutShape.Equal(tensor.Shape{1, 4, 16, 16}) {
		t.Errorf("upsample shape = %v", g.Node(u).OutShape)
	}

	b2 := NewBuilder("t2", BuildOptions{})
	in2 := b2.Input("in", 4, 8, 8)
	c1 := b2.ConvNB(in2, 4, 6, 3, 1, 1)
	c2 := b2.ConvNB(in2, 4, 10, 3, 1, 1)
	cat := b2.Concat(c1, c2)
	g2 := b2.Graph(cat)
	if err := g2.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	if !g2.Node(cat).OutShape.Equal(tensor.Shape{1, 16, 8, 8}) {
		t.Errorf("concat shape = %v", g2.Node(cat).OutShape)
	}
}

func TestShapeInferenceErrors(t *testing.T) {
	// Batch must be positive.
	g := LeNet(28, 10, BuildOptions{})
	if err := g.InferShapes(0); err == nil {
		t.Error("accepted batch 0")
	}

	// Collapsing conv output.
	b := NewBuilder("bad", BuildOptions{})
	in := b.Input("in", 3, 4, 4)
	c := b.ConvNB(in, 3, 8, 7, 1, 0) // 7x7 kernel on 4x4 input, no pad
	bg := b.Graph(c)
	if err := bg.InferShapes(1); err == nil {
		t.Error("accepted collapsing conv")
	}

	// Dense on unflattened input.
	b2 := NewBuilder("bad2", BuildOptions{})
	in2 := b2.Input("in", 3, 4, 4)
	d := b2.Dense(in2, 48, 10)
	bg2 := b2.Graph(d)
	if err := bg2.InferShapes(1); err == nil {
		t.Error("dense accepted rank-4 input")
	}

	// Add with incompatible shapes.
	b3 := NewBuilder("bad3", BuildOptions{})
	x := b3.Input("x", 3, 4, 4)
	y := b3.Input("y", 5, 4, 4)
	a := b3.Add(x, y)
	bg3 := b3.Graph(a)
	if err := bg3.InferShapes(1); err == nil {
		t.Error("add accepted mismatched channels")
	}
}

func TestSEBroadcastShape(t *testing.T) {
	b := NewBuilder("se", BuildOptions{})
	in := b.Input("in", 8, 6, 6)
	s := b.GlobalAvgPool(in)
	m := b.Mul(in, s)
	g := b.Graph(m)
	if err := g.InferShapes(1); err != nil {
		t.Fatalf("SE-style broadcast rejected: %v", err)
	}
	if !g.Node(m).OutShape.Equal(tensor.Shape{1, 8, 6, 6}) {
		t.Errorf("mul shape = %v", g.Node(m).OutShape)
	}
}

func TestStatsHandComputed(t *testing.T) {
	// One 3x3 conv, 2->4 channels, 8x8 input with pad 1: out 4x8x8.
	b := NewBuilder("t", BuildOptions{})
	in := b.Input("in", 2, 8, 8)
	c := b.ConvNB(in, 2, 4, 3, 1, 1)
	g := b.Graph(c)
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	s, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantMACs := int64(4*8*8) * int64(2*3*3) // outEl * inC*kh*kw
	if s.MACs != wantMACs {
		t.Errorf("MACs = %d, want %d", s.MACs, wantMACs)
	}
	if s.Ops != 2*wantMACs {
		t.Errorf("Ops = %d, want %d", s.Ops, 2*wantMACs)
	}
	if want := int64(4 * 2 * 3 * 3); s.Params != want {
		t.Errorf("Params = %d, want %d", s.Params, want)
	}
}

func TestStatsDenseWithBias(t *testing.T) {
	b := NewBuilder("t", BuildOptions{Weights: true})
	in := b.Input("in", 10)
	d := b.Dense(in, 10, 5)
	g := b.Graph(d)
	if err := g.InferShapes(3); err != nil {
		t.Fatal(err)
	}
	s, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * 5 * 10); s.MACs != want {
		t.Errorf("MACs = %d, want %d", s.MACs, want)
	}
	if want := int64(10*5 + 5); s.Params != want {
		t.Errorf("Params = %d, want %d", s.Params, want)
	}
	if s.Batch != 3 {
		t.Errorf("Batch = %d", s.Batch)
	}
}

func TestPhantomParamsMatchMaterialized(t *testing.T) {
	// Parameter accounting must agree between weight-less and
	// materialized builds for every model in the zoo.
	zoo := []struct {
		name  string
		build func(opts BuildOptions) *Graph
	}{
		{"lenet", func(o BuildOptions) *Graph { return LeNet(28, 10, o) }},
		{"motornet", func(o BuildOptions) *Graph { return MotorNet(256, 5, o) }},
		{"arcnet", func(o BuildOptions) *Graph { return ArcNet(512, o) }},
		{"facedetect", func(o BuildOptions) *Graph { return FaceDetectNet(96, o) }},
		{"faceembed", func(o BuildOptions) *Graph { return FaceEmbedNet(64, 64, o) }},
		{"gesture", func(o BuildOptions) *Graph { return GestureNet(64, 8, o) }},
		{"speech", func(o BuildOptions) *Graph { return SpeechNet(100, 26, 29, o) }},
		{"mobilenetv3", func(o BuildOptions) *Graph { return MobileNetV3(224, o) }},
	}
	for _, m := range zoo {
		phantom := m.build(BuildOptions{})
		real := m.build(BuildOptions{Weights: true})
		for _, g := range []*Graph{phantom, real} {
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if err := g.InferShapes(1); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
		}
		ps, err := phantom.Stats()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := real.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if ps.Params != rs.Params {
			t.Errorf("%s: phantom params %d != materialized %d", m.name, ps.Params, rs.Params)
		}
		if ps.MACs != rs.MACs {
			t.Errorf("%s: phantom MACs %d != materialized %d", m.name, ps.MACs, rs.MACs)
		}
	}
}

func TestModelZooKnownCounts(t *testing.T) {
	cases := []struct {
		name       string
		g          *Graph
		minGMACs   float64
		maxGMACs   float64
		minMParams float64
		maxMParams float64
	}{
		// Published: 4.1 GMACs, 25.6M params.
		{"resnet50", ResNet50(224, BuildOptions{}), 3.8, 4.4, 24, 27},
		// Published: 0.219 GMACs, 5.4M params.
		{"mobilenetv3", MobileNetV3(224, BuildOptions{}), 0.19, 0.25, 5.0, 6.0},
		// Published (darknet): 128.5 BFLOPs = 64.2 GMACs, 64M params.
		{"yolov4@608", YoloV4(608, 80, BuildOptions{}), 60, 68, 62, 67},
		// Published: ~6.9 BFLOPs = 3.45 GMACs, 6.06M params.
		{"yolov4tiny@416", YoloV4Tiny(416, 80, BuildOptions{}), 3.2, 3.9, 5.7, 6.5},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := c.g.InferShapes(1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s, err := c.g.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if g := s.GMACs(); g < c.minGMACs || g > c.maxGMACs {
			t.Errorf("%s: %.2f GMACs outside [%v, %v]", c.name, g, c.minGMACs, c.maxGMACs)
		}
		if p := float64(s.Params) / 1e6; p < c.minMParams || p > c.maxMParams {
			t.Errorf("%s: %.2fM params outside [%v, %v]", c.name, p, c.minMParams, c.maxMParams)
		}
	}
}

func TestCloneDeep(t *testing.T) {
	g := LeNet(28, 10, BuildOptions{Weights: true, Seed: 7})
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone's weights must not touch the original.
	for _, n := range c.Nodes {
		if w := n.Weight(WeightKey); w != nil {
			w.F32[0] = 12345
			orig := g.Node(n.Name).Weight(WeightKey)
			if orig.F32[0] == 12345 {
				t.Fatal("Clone shares weight storage")
			}
			break
		}
	}
	if c.NumParams() != g.NumParams() {
		t.Error("clone param count differs")
	}
}

func TestWeightBytesAndSummary(t *testing.T) {
	g := LeNet(28, 10, BuildOptions{Weights: true})
	if g.WeightBytes() != g.NumParams()*4 {
		t.Errorf("WeightBytes = %d, want %d", g.WeightBytes(), g.NumParams()*4)
	}
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	s, _ := g.Stats()
	sum := s.Summary(5)
	if !strings.Contains(sum, "TOTAL") || !strings.Contains(sum, "more rows") {
		t.Errorf("Summary missing sections:\n%s", sum)
	}
}

func TestStatsRequiresShapes(t *testing.T) {
	g := LeNet(28, 10, BuildOptions{})
	if _, err := g.Stats(); err == nil {
		t.Error("Stats succeeded without InferShapes")
	}
}

func TestBuilderDeterminism(t *testing.T) {
	a := LeNet(28, 10, BuildOptions{Weights: true, Seed: 42})
	b := LeNet(28, 10, BuildOptions{Weights: true, Seed: 42})
	for _, n := range a.Nodes {
		w := n.Weight(WeightKey)
		if w == nil {
			continue
		}
		w2 := b.Node(n.Name).Weight(WeightKey)
		for i := range w.F32 {
			if w.F32[i] != w2.F32[i] {
				t.Fatalf("node %s weight[%d] differs across same-seed builds", n.Name, i)
			}
		}
	}
}
