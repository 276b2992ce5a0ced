// Package difftest differentially tests the RISC-V SoC firmware backend
// against the native INT8 engine on randomly generated model graphs.
//
// Both execution paths lower the same quantization schema through the
// shared plan (inference.BuildQuantPlan), so for any graph the plan
// supports their dequantized FP32 outputs must be bitwise identical —
// not merely close. generate builds a seed-pinned random graph from the
// op vocabulary the firmware lowers (conv, depthwise conv, dense,
// batch-norm, pointwise activations, max-pool, global average pool,
// residual add, flatten, softmax islands); check runs one graph through
// the native engine and both firmware variants (CFU and scalar) and
// reports the first divergence. The package's tests drive both over a
// seed-pinned corpus.
package difftest

import (
	"fmt"
	"math/rand"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/rvbackend"
	"vedliot/internal/tensor"
)

// activations that lower to code-table LUT steps.
var acts = []nn.OpType{
	nn.OpReLU, nn.OpReLU6, nn.OpLeakyReLU, nn.OpSigmoid,
	nn.OpTanh, nn.OpHSwish, nn.OpHSigmoid, nn.OpMish,
}

// generate builds a small random model graph, deterministic in seed.
// Every op it emits has an integer lowering (or a supported island), so
// the result always compiles on both the native engine and the SoC
// backend; shapes are kept tiny so cycle-accurate emulation stays fast.
func generate(seed int64) *nn.Graph {
	r := rand.New(rand.NewSource(seed))
	b := nn.NewBuilder(fmt.Sprintf("difftest-%d", seed), nn.BuildOptions{Weights: true, Seed: seed})

	curC := 1 + r.Intn(3)
	curH := 6 + r.Intn(6)
	x := b.Input("in", curC, curH, curH)

	stages := 2 + r.Intn(4)
	for i := 0; i < stages; i++ {
		switch r.Intn(7) {
		case 0: // plain conv
			k := 1 + r.Intn(3)
			s := 1 + r.Intn(2)
			p := 0
			if k > 1 {
				p = r.Intn(2)
			}
			outH := (curH+2*p-k)/s + 1
			if outH < 1 {
				continue
			}
			outC := 1 + r.Intn(4)
			x = b.Conv(x, curC, outC, k, s, p)
			curC, curH = outC, outH
		case 1: // conv -> batch-norm -> activation (fused epilogue path)
			k := 1 + 2*r.Intn(2) // 1 or 3
			p := k / 2
			outH := curH + 2*p - k + 1
			if outH < 1 {
				continue
			}
			outC := 1 + r.Intn(4)
			x = b.ConvBNAct(x, curC, outC, k, 1, p, acts[r.Intn(len(acts))])
			curC, curH = outC, outH
		case 2: // depthwise conv
			if curH < 3 {
				continue
			}
			s := 1 + r.Intn(2)
			outH := (curH+2-3)/s + 1
			x = b.DWConv(x, curC, 3, s, 1)
			curH = outH
		case 3: // max-pool
			s := 1 + r.Intn(2)
			outH := (curH-2)/s + 1
			if outH < 1 {
				continue
			}
			x = b.MaxPool(x, 2, s, 0)
			curH = outH
		case 4: // bare activation
			x = b.Act(x, acts[r.Intn(len(acts))])
		case 5: // standalone batch-norm (per-channel LUT step)
			x = b.BN(x, curC)
		case 6: // residual block: x + act(conv3x3(x))
			if curH < 3 {
				continue
			}
			y := b.Conv(x, curC, curC, 3, 1, 1)
			y = b.Act(y, acts[r.Intn(len(acts))])
			x = b.Add(x, y)
		}
	}

	switch r.Intn(3) {
	case 0: // classifier head over pooled channels
		x = b.GlobalAvgPool(x)
		x = b.Flatten(x)
		x = b.Dense(x, curC, 2+r.Intn(4))
	case 1: // dense head with activation
		x = b.Flatten(x)
		x = b.Dense(x, curC*curH*curH, 2+r.Intn(6))
		x = b.Act(x, acts[r.Intn(len(acts))])
	default: // softmax head (FP32 island on the firmware path)
		x = b.Flatten(x)
		x = b.Dense(x, curC*curH*curH, 3+r.Intn(4))
		x = b.Softmax(x)
	}
	g := b.Graph(x)
	perturbBatchNorm(g, r)
	return g
}

// perturbBatchNorm replaces the builder's identity batch-norm statistics
// with random ones so the per-channel tables are non-trivial.
func perturbBatchNorm(g *nn.Graph, r *rand.Rand) {
	for _, n := range g.Nodes {
		if n.Op != nn.OpBatchNorm {
			continue
		}
		for _, key := range []string{nn.GammaKey, nn.BetaKey, nn.MeanKey, nn.VarKey} {
			t := n.Weight(key)
			if t == nil {
				continue
			}
			for i := range t.F32 {
				v := float32(r.NormFloat64() * 0.5)
				if key == nn.GammaKey {
					v = 1 + v*0.5
				}
				if key == nn.VarKey {
					v = 0.5 + float32(r.Float64())
				}
				t.F32[i] = v
			}
		}
	}
}

// check calibrates the graph, runs it through the native INT8 engine
// and both firmware variants, and returns an error naming the first
// output element where any pair of paths disagrees bitwise.
func check(g *nn.Graph, batch int, inputSeed int) error {
	samples, err := nn.SyntheticCalibration(g, 2)
	if err != nil {
		return fmt.Errorf("calibration samples: %w", err)
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	in, err := nn.SyntheticInput(g, batch, inputSeed)
	if err != nil {
		return fmt.Errorf("input: %w", err)
	}
	native, err := inference.CompileQuantized(g, schema)
	if err != nil {
		return fmt.Errorf("native compile: %w", err)
	}
	want, err := native.Run(in)
	if err != nil {
		return fmt.Errorf("native run: %w", err)
	}
	for _, noCFU := range []bool{false, true} {
		b := rvbackend.Backend{Schema: schema, NoCFU: noCFU}
		exe, err := b.Compile(g)
		if err != nil {
			return fmt.Errorf("%s compile: %w", b.Name(), err)
		}
		got, err := exe.Run(in)
		if err != nil {
			return fmt.Errorf("%s run: %w", b.Name(), err)
		}
		if err := diff(want, got); err != nil {
			return fmt.Errorf("%s: %w", b.Name(), err)
		}
	}
	return nil
}

// diff reports the first bitwise difference between two output maps.
func diff(want, got map[string]*tensor.Tensor) error {
	if len(want) != len(got) {
		return fmt.Errorf("output count %d, want %d", len(got), len(want))
	}
	for k, wt := range want {
		gt, ok := got[k]
		if !ok {
			return fmt.Errorf("missing output %q", k)
		}
		if !wt.Shape.Equal(gt.Shape) {
			return fmt.Errorf("output %q shape %v, want %v", k, gt.Shape, wt.Shape)
		}
		for i := range wt.F32 {
			if wt.F32[i] != gt.F32[i] {
				return fmt.Errorf("output %q elem %d: firmware %v, native %v",
					k, i, gt.F32[i], wt.F32[i])
			}
		}
	}
	return nil
}
