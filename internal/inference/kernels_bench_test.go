package inference

import (
	"fmt"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// benchStep times bound step si of g under both executors at the given
// batch sizes: the kernel closure alone on planned scratch,
// without Run's input checks, entry quantization or output allocation,
// so single-layer figures compare like the per-step profile. Operands
// are synthetic values of the operand's size, not the values earlier
// steps would produce.
func benchStep(b *testing.B, name string, g *nn.Graph, si int, batches ...int) {
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	schema, err := calibrateVia(g, samples)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	q, err := CompileQuantized(g, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches {
		fst, qst := &fp.steps[si], &q.steps[si]
		srcs := make([][]float32, len(fst.ins))
		srcs8 := make([][]int8, len(qst.ins))
		for i, v := range fst.ins {
			srcs[i] = make([]float32, fp.vals[v].elems*batch)
			for j := range srcs[i] {
				srcs[i][j] = float32((j*31+i*7)%509-254) / 100
			}
			srcs8[i] = make([]int8, len(srcs[i]))
			tensor.QuantizeSlice(srcs8[i], srcs[i], q.vals[qst.ins[i]].qp)
		}
		outElems := fp.vals[fst.out].elems * batch
		b.Run(fmt.Sprintf("%s/fp32/batch%d", name, batch), func(b *testing.B) {
			var sb scratchBufs
			sb.ensure(fp.scratch, batch)
			rc := runCtx{batch: batch, spec: fp.scratch, scratch: &sb}
			dst := make([]float32, outElems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fst.kern(&rc, dst, srcs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/int8/batch%d", name, batch), func(b *testing.B) {
			var sb scratchBufs
			sb.ensure(q.scratch, batch)
			rc := runCtx{batch: batch, spec: q.scratch, scratch: &sb}
			dst := make([]int8, outElems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := qst.kern(&rc, dst, srcs8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatch1Kernels sweeps the layers a batch-1 reply waits for:
// the seven depthwise shapes of mobilenetedge at 64x64 and the first
// dense layer of the mlp, FP32 and INT8, the depthwise
// shapes at batch 1 and 8 and the dense layer at every short batch a
// short panel serves; then the shapes the INT8 row's profile names beside
// their FP32 twins — the stride-2 stem, a pointwise expansion, a 1x1 on
// 4x4 and on 3x3 planes (one 16-column tile, and one narrower than any
// vector), a pointwise expansion with batch-norm and h-swish fused, a
// residual Add, a squeeze-excite Mul — and the entry quantizer, which
// has no FP32 twin (`make bench-kernels`).
func BenchmarkBatch1Kernels(b *testing.B) {
	for _, s := range []struct{ c, hw, k, stride int }{
		{16, 32, 3, 1}, {64, 32, 3, 2}, {72, 16, 3, 1}, {96, 16, 5, 2},
		{120, 8, 5, 1}, {160, 8, 3, 2}, {192, 4, 3, 1},
	} {
		nb := nn.NewBuilder("dw", nn.BuildOptions{Weights: true, Seed: 5})
		x := nb.Input("input", s.c, s.hw, s.hw)
		g := nb.Graph(nb.DWConv(x, s.c, s.k, s.stride, s.k/2))
		benchStep(b, fmt.Sprintf("dw%dx%d_s%d_c%d_%dx%d", s.k, s.k, s.stride, s.c, s.hw, s.hw), g, 0, 1, 8)
	}
	nb := nn.NewBuilder("dense", nn.BuildOptions{Weights: true, Seed: 5})
	g := nb.Graph(nb.Dense(nb.Input("input", 784), 784, 300))
	benchStep(b, "dense784x300", g, 0, 1, 2, 3, 4, 8)

	for _, s := range []struct {
		name                     string
		inC, outC, hw, k, s, pad int
	}{
		{"stem3x3_s2_3to16_64x64", 3, 16, 64, 3, 2, 1}, {"pw16to72_32x32", 16, 72, 32, 1, 1, 0},
		{"pw192to64_4x4", 192, 64, 4, 1, 1, 0}, {"pw192to64_3x3", 192, 64, 3, 1, 1, 0},
	} {
		nb := nn.NewBuilder("conv", nn.BuildOptions{Weights: true, Seed: 5})
		x := nb.Input("input", s.inC, s.hw, s.hw)
		benchStep(b, s.name, nb.Graph(nb.Conv(x, s.inC, s.outC, s.k, s.s, s.pad)), 0, 1)
	}
	// A pointwise expansion with its folded batch-norm and h-swish fused
	// (one step): the GEMM form's tile epilogue, affine and activation.
	nb = nn.NewBuilder("pwact", nn.BuildOptions{Weights: true, Seed: 5})
	x40 := nb.Input("input", 40, 8, 8)
	benchStep(b, "pw40to120_8x8_bn_hswish", nb.Graph(nb.ConvBNAct(x40, 40, 120, 1, 1, 0, nn.OpHSwish)), 0, 1)
	// A residual Add of the input and its depthwise image (step 1), and a
	// squeeze-excite Mul of the input by its pooled channels (step 1).
	nb = nn.NewBuilder("add", nn.BuildOptions{Weights: true, Seed: 5})
	x16 := nb.Input("input", 16, 32, 32)
	benchStep(b, "add_16x32x32", nb.Graph(nb.Add(x16, nb.DWConv(x16, 16, 3, 1, 1))), 1, 1)
	nb = nn.NewBuilder("mul", nn.BuildOptions{Weights: true, Seed: 5})
	x72 := nb.Input("input", 72, 16, 16)
	benchStep(b, "mul_72x16x16_by_72x1x1", nb.Graph(nb.Mul(x72, nb.GlobalAvgPool(x72))), 1, 1)

	x := make([]float32, 3*64*64)
	for i := range x {
		x[i] = float32(i%509-254) / 100
	}
	codes := make([]int8, len(x))
	b.Run("quantize_3x64x64/int8/batch1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.QuantizeSlice(codes, x, tensor.QuantParams{Scale: 0.02, Zero: 3})
		}
	})
}
