package inference

import (
	"fmt"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// benchFirstStep times the first bound step of g under both executors
// at the given batch sizes on one worker: the kernel closure alone on
// planned scratch, without Run's input checks, entry quantization or
// output allocation, so single-layer figures compare like the per-step
// profile.
func benchFirstStep(b *testing.B, name string, g *nn.Graph, batches ...int) {
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	schema, err := calibrateVia(g, samples)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := Compile(g, WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	q, err := CompileQuantized(g, schema, WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches {
		in, err := nn.SyntheticInput(g, batch, 9)
		if err != nil {
			b.Fatal(err)
		}
		x := in[g.Inputs[0]].F32
		fst, qst := &fp.steps[0], &q.steps[0]
		outElems := fp.vals[fst.out].elems * batch
		b.Run(fmt.Sprintf("%s/fp32/batch%d", name, batch), func(b *testing.B) {
			rc := runCtx{batch: batch, workers: 1, spec: fp.scratch, scratch: getScratch(&fp.scratchPool, fp.scratch, batch, 1)}
			dst, srcs := make([]float32, outElems), [][]float32{x}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fst.kern(&rc, dst, srcs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/int8/batch%d", name, batch), func(b *testing.B) {
			rc := runCtx{batch: batch, workers: 1, spec: q.scratch, scratch: getScratch(&q.scratchPool, q.scratch, batch, 1)}
			x8 := make([]int8, len(x))
			tensor.QuantizeSlice(x8, x, q.qp[qst.ins[0]])
			dst, srcs := make([]int8, outElems), [][]int8{x8}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := qst.kern(&rc, dst, srcs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatch1Kernels sweeps the layers a batch-1 reply waits for:
// the seven depthwise shapes of mobilenetedge at 64x64 and the first
// dense layer of the mlp, FP32 and INT8, one worker, the depthwise
// shapes at batch 1 and 8 and the dense layer at every short batch the
// row body serves (`make bench-kernels`).
func BenchmarkBatch1Kernels(b *testing.B) {
	for _, s := range []struct{ c, hw, k, stride int }{
		{16, 32, 3, 1}, {64, 32, 3, 2}, {72, 16, 3, 1}, {96, 16, 5, 2},
		{120, 8, 5, 1}, {160, 8, 3, 2}, {192, 4, 3, 1},
	} {
		nb := nn.NewBuilder("dw", nn.BuildOptions{Weights: true, Seed: 5})
		x := nb.Input("input", s.c, s.hw, s.hw)
		g := nb.Graph(nb.DWConv(x, s.c, s.k, s.stride, s.k/2))
		benchFirstStep(b, fmt.Sprintf("dw%dx%d_s%d_c%d_%dx%d", s.k, s.k, s.stride, s.c, s.hw, s.hw), g, 1, 8)
	}
	nb := nn.NewBuilder("dense", nn.BuildOptions{Weights: true, Seed: 5})
	g := nb.Graph(nb.Dense(nb.Input("input", 784), 784, 300))
	benchFirstStep(b, "dense784x300", g, 1, 2, 3, 4, 8)
}

// BenchmarkFanOutCrossover runs one kernel inline and split across two
// workers over a ladder of work sizes: n cache-resident 256-element
// AxpyF32 calls, the depthwise plane form's inner loop. The inline time
// at which split first beats inline is the crossover in time; the
// per-step profile (TestFanOutProfileBatch8) gives it in estimated cost,
// and defaultParallelThreshold is chosen from the two.
func BenchmarkFanOutCrossover(b *testing.B) {
	const unit = 256
	bufs := [2][2][]float32{{make([]float32, unit), make([]float32, unit)}, {make([]float32, unit), make([]float32, unit)}}
	for shift := 15; shift <= 24; shift++ {
		n := (1 << shift) / (2 * unit)
		for _, c := range []struct {
			name      string
			threshold int64
		}{{"inline", 1 << 62}, {"split", 0}} {
			rc := runCtx{batch: 1, workers: 2, threshold: c.threshold}
			b.Run(fmt.Sprintf("axpys=%d/%s", n, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rc.parallelForWorker(n, 2*unit, func(worker, lo, hi int) {
						for u := lo; u < hi; u++ {
							tensor.AxpyF32(bufs[worker][0], bufs[worker][1], 0.5)
						}
					})
				}
			})
		}
	}
}
