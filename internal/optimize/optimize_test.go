package optimize

import (
	"math"
	"slices"
	"testing"

	"vedliot/internal/inference"
	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// runLeNet executes the graph on a fixed probe input.
func runLeNet(t *testing.T, g *nn.Graph) *tensor.Tensor {
	t.Helper()
	r, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 1, 28, 28)
	for i := range in.F32 {
		in.F32[i] = float32(i%17)/17 - 0.5
	}
	out, err := r.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFoldBatchNormPreservesFunction(t *testing.T) {
	// A conv+BN model must compute the same function after folding.
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 11})
	x := b.Input("input", 1, 8, 8)
	x = b.ConvBNAct(x, 1, 4, 3, 1, 1, nn.OpReLU)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	g := b.Graph(x)

	// Give BN non-trivial statistics.
	for _, n := range g.Nodes {
		if n.Op == nn.OpBatchNorm {
			mean := n.Weight(nn.MeanKey)
			variance := n.Weight(nn.VarKey)
			gamma := n.Weight(nn.GammaKey)
			for i := range mean.F32 {
				mean.F32[i] = 0.1 * float32(i+1)
				variance.F32[i] = 0.5 + 0.25*float32(i)
				gamma.F32[i] = 1.5 - 0.2*float32(i)
			}
		}
	}

	run := func(g *nn.Graph) *tensor.Tensor {
		r, err := inference.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.New(tensor.FP32, 1, 1, 8, 8)
		for i := range in.F32 {
			in.F32[i] = float32(i%5) - 2
		}
		out, err := r.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	before := run(g)
	folded := g.Clone()
	if !foldBatchNorm(folded) {
		t.Fatal("foldBatchNorm reported no change on conv+BN graph")
	}
	for _, n := range folded.Nodes {
		if n.Op == nn.OpBatchNorm {
			t.Fatal("BatchNorm survived folding")
		}
	}
	after := run(folded)
	diff, err := tensor.MaxAbsDiff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-4 {
		t.Errorf("folding changed function by %v", diff)
	}
}

func TestFoldBatchNormSkipsSharedConv(t *testing.T) {
	// If the conv feeds two consumers, folding must not happen.
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true})
	x := b.Input("input", 1, 4, 4)
	c := b.ConvNB(x, 1, 2, 3, 1, 1)
	bn := b.BN(c, 2)
	relu := b.Act(c, nn.OpReLU) // second consumer of conv
	sum := b.Add(bn, relu)
	g := b.Graph(sum)
	if foldBatchNorm(g) {
		t.Error("foldBatchNorm folded a shared conv")
	}
}

// TestPipelineConverges pins the applied-pass log (what
// kenning.PipelineReport.AppliedPasses reports) on a graph with an
// identity, a conv→BN pair and a dead node: one sweep folds the
// batch-norm, the identity and the dead node stay for the lowering to
// drop, and a second run applies nothing.
func TestPipelineConverges(t *testing.T) {
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 2})
	x := b.Input("input", 1, 8, 8)
	x = b.ConvBNAct(x, 1, 4, 3, 1, 1, nn.OpReLU)
	b.ConvNB(x, 4, 2, 1, 1, 0) // dead branch
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	g := b.Graph(x)
	g.MustAdd(&nn.Node{Name: "id", Op: nn.OpIdentity, Inputs: []string{x}})
	g.MustAdd(&nn.Node{Name: "sm", Op: nn.OpSoftmax, Inputs: []string{"id"}})
	g.Outputs = []string{"sm"}

	log := Pipeline(g)
	want := []string{"fold-batchnorm"}
	if !slices.Equal(log, want) {
		t.Errorf("applied passes = %v, want %v", log, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Op == nn.OpBatchNorm {
			t.Errorf("%s %q survived the pipeline", n.Op, n.Name)
		}
	}
	if g.Node("id") == nil {
		t.Error("the pipeline removed the identity, which is the lowering's to drop")
	}
	// A second run must be a no-op.
	if log2 := Pipeline(g); len(log2) != 0 {
		t.Errorf("pipeline not idempotent: %v", log2)
	}
}

// TestPipelineKeepsUnusedInputs checks that graph surgery leaves a
// model's declared signature alone: an input the outputs never read is
// still declared, and a run without it is still refused.
func TestPipelineKeepsUnusedInputs(t *testing.T) {
	g := nn.NewGraph("t")
	g.MustAdd(&nn.Node{Name: "a", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{4}}})
	g.MustAdd(&nn.Node{Name: "b", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{4}}})
	g.MustAdd(&nn.Node{Name: "sm", Op: nn.OpSoftmax, Inputs: []string{"a"}})
	g.Inputs = []string{"a", "b"}
	g.Outputs = []string{"sm"}

	Pipeline(g)
	if !slices.Equal(g.Inputs, []string{"a", "b"}) || g.Node("b") == nil {
		t.Fatalf("inputs after Pipeline = %v, want [a b]", g.Inputs)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(tensor.FP32, 1, 4)
	if _, err := eng.Run(map[string]*tensor.Tensor{"a": a}); err == nil {
		t.Error("a run without declared input \"b\" was accepted")
	}
}

// TestFoldBatchNormUsesFoldedStats pins the fold's arithmetic to
// nn.FoldBatchNormStats, the one the compilers' fold-constants step
// uses: folded weights are w·scale and the folded bias is
// bias·scale+shift, bit for bit.
func TestFoldBatchNormUsesFoldedStats(t *testing.T) {
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 5})
	x := b.Input("input", 3, 6, 6)
	conv := b.Conv(x, 3, 4, 3, 1, 1)
	bn := b.BN(conv, 4)
	g := b.Graph(bn)
	c, n := g.Node(conv), g.Node(bn)
	bias := c.Weight(nn.BiasKey).F32
	gamma, beta := n.Weight(nn.GammaKey).F32, n.Weight(nn.BetaKey).F32
	mean, variance := n.Weight(nn.MeanKey).F32, n.Weight(nn.VarKey).F32
	for i := range gamma {
		bias[i] = 0.3 - 0.17*float32(i)
		gamma[i] = 1.5 - 0.2*float32(i)
		beta[i] = 0.05 * float32(i+1)
		mean[i] = 0.1*float32(i) - 0.12
		variance[i] = 0.5 + 0.33*float32(i)
	}
	w := c.Weight(nn.WeightKey).Clone()
	wantBias := append([]float32(nil), bias...)
	scale, shift, err := nn.FoldBatchNormStats(len(gamma), gamma, beta, mean, variance, n.Attrs.Eps)
	if err != nil {
		t.Fatal(err)
	}

	if !foldBatchNorm(g) {
		t.Fatal("foldBatchNorm reported no change on conv+BN graph")
	}
	perOut := w.NumElements() / len(scale)
	for i, v := range c.Weight(nn.WeightKey).F32 {
		if want := w.F32[i] * scale[i/perOut]; math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("weight %d = %v, want %v", i, v, want)
		}
	}
	for oc, v := range c.Weight(nn.BiasKey).F32 {
		want := float32(wantBias[oc]*scale[oc]) + shift[oc]
		if math.Float32bits(v) != math.Float32bits(want) {
			t.Errorf("bias %d = %v, want %v", oc, v, want)
		}
	}
}

// TestBatchNormShortStatsRefused: a batch norm over 4 channels whose
// statistics, or derived fold weights a loaded graph may carry, hold
// another number of elements passes Validate, so every consumer must
// refuse it with an error rather than index past the short slice: the
// compiler, the reference interpreter, and the toolchain pipeline
// followed by the compiler.
func TestBatchNormShortStatsRefused(t *testing.T) {
	for _, lengths := range []map[string]int{
		{nn.GammaKey: 2}, {nn.BetaKey: 2}, {nn.MeanKey: 2}, {nn.VarKey: 2},
		{nn.GammaKey: 2, nn.BetaKey: 2, nn.MeanKey: 2, nn.VarKey: 2},
		// Derived weights take precedence over the statistics; a short
		// gamma keeps Pipeline from folding the node away.
		{ir.FoldScaleKey: 4, ir.FoldShiftKey: 2, nn.GammaKey: 2},
	} {
		build := func() *nn.Graph {
			b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 5})
			bn := b.BN(b.Conv(b.Input("input", 3, 6, 6), 3, 4, 3, 1, 1), 4)
			g := b.Graph(bn)
			for key, n := range lengths {
				g.Node(bn).SetWeight(key, tensor.New(tensor.FP32, n))
			}
			return g
		}
		refused := func(path string, run func(g *nn.Graph) error) {
			t.Helper()
			if err := run(build()); err == nil {
				t.Errorf("%v: %s accepted the graph", lengths, path)
			}
		}
		refused("Compile", func(g *nn.Graph) error {
			_, err := inference.Compile(g)
			return err
		})
		refused("Interpreter.Run", func(g *nn.Graph) error {
			r, err := inference.NewInterpreter(g)
			if err != nil {
				return err
			}
			_, err = r.Run(map[string]*tensor.Tensor{"input": tensor.New(tensor.FP32, 1, 3, 6, 6)})
			return err
		})
		refused("Pipeline+Compile", func(g *nn.Graph) error {
			Pipeline(g)
			_, err := inference.Compile(g)
			return err
		})
	}
}

func TestMagnitudePruneReachesTarget(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 4})
	rep, err := MagnitudePrune(g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Sparsity(); math.Abs(s-0.9) > 0.02 {
		t.Errorf("sparsity = %v, want ~0.9", s)
	}
	if rep.TheoreticalSpeedup() <= 1 {
		t.Errorf("speedup = %v, want > 1", rep.TheoreticalSpeedup())
	}
	// Graph must still execute.
	runLeNet(t, g)
}

// TestMagnitudePruneReachesTargetExactly: the pass zeroes the fewest
// weights whose share is at least the target, also where the target
// times the weight count is not whole (8,512 weights at 0.8 is 6,809.6).
func TestMagnitudePruneReachesTargetExactly(t *testing.T) {
	for _, s := range []float64{0.3, 0.8, 0.95} {
		g := nn.MLP("motor-clf", []int{128, 64, 5}, nn.BuildOptions{Weights: true, Seed: 7})
		rep, err := MagnitudePrune(g, s)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Sparsity(); got < s || float64(rep.Zeroed-1)/float64(rep.TotalWeights) >= s {
			t.Errorf("sparsity %v: zeroed %d of %d (%v), want the fewest reaching it", s, rep.Zeroed, rep.TotalWeights, got)
		}
	}
}

func TestMagnitudePruneValidation(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true})
	if _, err := MagnitudePrune(g, 1.0); err == nil {
		t.Error("accepted sparsity 1.0")
	}
	if _, err := MagnitudePrune(g, -0.1); err == nil {
		t.Error("accepted negative sparsity")
	}
	// Zero sparsity must be a no-op on values.
	rep, err := MagnitudePrune(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Zeroed != 0 {
		t.Errorf("zero-sparsity pruned %d weights", rep.Zeroed)
	}
}

func TestChannelPrune(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 8})
	rep, err := ChannelPrune(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Zeroed == 0 {
		t.Fatal("channel prune zeroed nothing")
	}
	// Whole channels must be zero.
	for _, n := range g.Nodes {
		if n.Op != nn.OpConv {
			continue
		}
		w := n.Weight(nn.WeightKey)
		outC := w.Shape[0]
		perOut := w.NumElements() / outC
		zeroCh := 0
		for oc := 0; oc < outC; oc++ {
			allZero := true
			anyZero := false
			for i := 0; i < perOut; i++ {
				if w.F32[oc*perOut+i] == 0 {
					anyZero = true
				} else {
					allZero = false
				}
			}
			if anyZero && !allZero {
				t.Errorf("node %s channel %d partially zeroed", n.Name, oc)
			}
			if allZero {
				zeroCh++
			}
		}
		if zeroCh != outC/2 {
			t.Errorf("node %s: %d/%d channels zeroed, want %d", n.Name, zeroCh, outC, outC/2)
		}
	}
	runLeNet(t, g)
}

func TestQuantizeWeightsPerTensor(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 6})
	before := runLeNet(t, g)
	rep, err := QuantizeWeights(g, QuantConfig{Granularity: PerTensor})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesAfter >= rep.BytesBefore {
		t.Errorf("INT8 not smaller: %d -> %d", rep.BytesBefore, rep.BytesAfter)
	}
	if ratio := float64(rep.BytesBefore) / float64(rep.BytesAfter); ratio < 3.9 || ratio > 4.1 {
		t.Errorf("compression ratio = %v, want ~4", ratio)
	}
	after := runLeNet(t, g)
	// Quantized model output stays close to the FP32 one.
	diff, err := tensor.MaxAbsDiff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 0.2 {
		t.Errorf("quantization moved softmax outputs by %v", diff)
	}
	if rep.WeightMSE == 0 {
		t.Error("weight MSE reported as exactly zero")
	}
}

func TestQuantizePerChannelBeatsPerTensorSNR(t *testing.T) {
	// Per-channel granularity must achieve at least per-tensor SNR on a
	// weight tensor with per-channel scale variation.
	w := tensor.New(tensor.FP32, 4, 1, 3, 3)
	for oc := 0; oc < 4; oc++ {
		scale := float32(math.Pow(10, float64(oc)-2)) // 0.01 .. 10
		for i := 0; i < 9; i++ {
			w.F32[oc*9+i] = scale * (float32(i)/9 - 0.5)
		}
	}
	snrT := QuantizationSNR(w, PerTensor)
	snrC := QuantizationSNR(w, PerChannel)
	if snrC <= snrT {
		t.Errorf("per-channel SNR %.1f dB <= per-tensor %.1f dB", snrC, snrT)
	}
}

func TestCalibrationRanges(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 13})
	sample := map[string]*tensor.Tensor{"input": tensor.New(tensor.FP32, 1, 1, 28, 28)}
	for i := range sample["input"].F32 {
		sample["input"].F32[i] = float32(i%11) / 11
	}
	schema, err := Calibrate(g, []map[string]*tensor.Tensor{sample})
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Activations) == 0 {
		t.Fatal("no activation ranges recorded")
	}
	for name, q := range schema.Activations {
		if !(q.Scale > 0) {
			t.Errorf("%s: calibrated scale %v, want > 0", name, q.Scale)
		}
	}
}

func TestClusterWeights(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 5})
	rep, err := ClusterWeights(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every layer's non-zero weights must take at most 16 distinct values.
	for _, n := range g.Nodes {
		if !prunable(n) {
			continue
		}
		w := n.Weight(nn.WeightKey)
		uniq := make(map[float32]bool)
		for _, v := range w.Float32s() {
			if v != 0 {
				uniq[v] = true
			}
		}
		if len(uniq) > 16 {
			t.Errorf("node %s has %d distinct values after 4-bit clustering", n.Name, len(uniq))
		}
	}
	if rep.MSE == 0 {
		t.Error("cluster MSE exactly zero is implausible")
	}
	if _, err := ClusterWeights(g, 0); err == nil {
		t.Error("accepted 0 cluster bits")
	}
	runLeNet(t, g)
}

func TestClusterPreservesZeros(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 7})
	if _, err := MagnitudePrune(g, 0.8); err != nil {
		t.Fatal(err)
	}
	countZeros := func() int {
		z := 0
		for _, n := range g.Nodes {
			if !prunable(n) {
				continue
			}
			for _, v := range n.Weight(nn.WeightKey).Float32s() {
				if v == 0 {
					z++
				}
			}
		}
		return z
	}
	before := countZeros()
	if _, err := ClusterWeights(g, 5); err != nil {
		t.Fatal(err)
	}
	if after := countZeros(); after < before {
		t.Errorf("clustering destroyed zeros: %d -> %d", before, after)
	}
}

func TestKMeans1D(t *testing.T) {
	vals := []float32{1, 1.1, 0.9, 5, 5.1, 4.9}
	cs := kmeans1D(vals, 2, 50)
	if len(cs) != 2 {
		t.Fatalf("got %d centroids", len(cs))
	}
	if math.Abs(float64(cs[0]-1)) > 0.2 || math.Abs(float64(cs[1]-5)) > 0.2 {
		t.Errorf("centroids = %v, want ~[1 5]", cs)
	}
	// Fewer values than clusters: return the values themselves.
	cs2 := kmeans1D([]float32{3, 1}, 8, 10)
	if len(cs2) != 2 || cs2[0] != 1 || cs2[1] != 3 {
		t.Errorf("small-input centroids = %v", cs2)
	}
}
