package inference

import (
	"fmt"
	"math"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// TestDenseMatchesInterpreterAtEveryBatch pins the one dense path — the
// GEMM with lanes along the output features — bitwise against the
// interpreter at batch sizes on both sides of every tile height and
// for feature counts that are not multiples of any tile width, with a
// fused tail, with FP32- and FP16-stored weights. The portable matrix
// runs it on every kernel tier.
func TestDenseMatchesInterpreterAtEveryBatch(t *testing.T) {
	const inF = 37
	for _, outF := range []int{10, 100, 300} {
		for _, act := range []nn.OpType{nn.OpIdentity, nn.OpHSwish} {
			b := nn.NewBuilder("dense-only", nn.BuildOptions{Weights: true, Seed: int64(outF)})
			x := b.Dense(b.Input("input", inF), inF, outF)
			if act != nn.OpIdentity {
				x = b.Act(x, act)
			}
			g := b.Graph(x)
			bias := g.Nodes[1].Weight(nn.BiasKey)
			for i := range bias.F32 {
				bias.F32[i] = float32(i%7)/7 - 0.4
			}
			for _, fp16 := range []bool{false, true} {
				g := g
				if fp16 {
					g = withPrecision(g, tensor.FP16)
				}
				eng := mustCompile(t, g)
				it := mustInterp(t, g)
				for _, batch := range []int{1, 2, 3, 4, 5, 8, 9, 33} {
					in := tensor.New(tensor.FP32, batch, inF)
					fillInput(in, batch)
					inputs := map[string]*tensor.Tensor{"input": in}
					want, err := it.Run(inputs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.Run(inputs)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("out %d act %s fp16 %v batch %d", outF, act, fp16, batch)
					w, o := want[g.Outputs[0]], got[g.Outputs[0]]
					if !w.Shape.Equal(o.Shape) {
						t.Fatalf("%s: shape %v, want %v", name, o.Shape, w.Shape)
					}
					for i := range w.F32 {
						if math.Float32bits(o.F32[i]) != math.Float32bits(w.F32[i]) {
							t.Fatalf("%s: element %d = %g, want %g", name, i, o.F32[i], w.F32[i])
						}
					}
				}
			}
		}
	}
}

// TestQuantDenseBatchInvariant checks the integer dense path across
// panel shapes: every row of a batch-33 run (full and ragged panels)
// carries the codes of its own batch-1 run.
func TestQuantDenseBatchInvariant(t *testing.T) {
	for _, outF := range []int{10, 100, 300} {
		b := nn.NewBuilder("qdense", nn.BuildOptions{Weights: true, Seed: int64(outF)})
		g := b.Graph(b.Dense(b.Input("input", 37), 37, outF))
		samples, err := nn.SyntheticCalibration(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := calibrateVia(g, samples)
		if err != nil {
			t.Fatal(err)
		}
		q, err := CompileQuantized(g, schema)
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.New(tensor.FP32, 33, 37)
		fillInput(in, outF)
		all, err := q.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 33; r++ {
			row, err := tensor.FromSlice(in.F32[r*37:(r+1)*37], 1, 37)
			if err != nil {
				t.Fatal(err)
			}
			one, err := q.RunSingle(row)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range one.F32 {
				if all.F32[r*outF+i] != v {
					t.Fatalf("out %d row %d feature %d: batched %g, alone %g", outF, r, i, all.F32[r*outF+i], v)
				}
			}
		}
	}
}

// TestDenseBiasBitsSurviveTheTile pins the way the bias enters the
// dense tile (one leading K step on a -0 seed): with every product -0,
// an output keeps exactly its bias bits, so a -0 bias must come out -0,
// a +0 bias +0, and a NaN bias that NaN, as in the interpreter.
func TestDenseBiasBitsSurviveTheTile(t *testing.T) {
	const inF, outF = 5, 4
	b := nn.NewBuilder("dense-bias", nn.BuildOptions{Weights: true, Seed: 2})
	g := b.Graph(b.Dense(b.Input("input", inF), inF, outF))
	negZero := float32(math.Copysign(0, -1))
	w := g.Nodes[1].Weight(nn.WeightKey)
	for i := range w.F32 {
		w.F32[i] = negZero
	}
	copy(g.Nodes[1].Weight(nn.BiasKey).F32, []float32{negZero, 0, 1.5, float32(math.NaN())})
	eng, it := mustCompile(t, g), mustInterp(t, g)
	for _, batch := range []int{1, 9} {
		in := tensor.New(tensor.FP32, batch, inF)
		for i := range in.F32 {
			in.F32[i] = float32(i%3) + 0.5
		}
		inputs := map[string]*tensor.Tensor{"input": in}
		want, err := it.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want[g.Outputs[0]].F32 {
			if o := got[g.Outputs[0]].F32[i]; math.Float32bits(o) != math.Float32bits(v) {
				t.Fatalf("batch %d element %d = %x, want %x", batch, i, math.Float32bits(o), math.Float32bits(v))
			}
		}
		if first := math.Float32bits(want[g.Outputs[0]].F32[0]); first != math.Float32bits(negZero) {
			t.Fatalf("reference output 0 = %x, want -0: the case does not exercise the seed", first)
		}
	}
}
