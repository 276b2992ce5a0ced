package inference

import (
	"math/rand"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// lowerAndBind takes one op through the integer lowering and the host
// binder, the way newQuantEngine does.
func lowerAndBind(t testing.TB, n *nn.Node, ins []tensor.Shape, out tensor.Shape, inQ []tensor.QuantParams, outQ tensor.QuantParams) (QuantStep, kernelFunc[int8], scratchSpec) {
	t.Helper()
	st := QuantStep{Name: n.Name, Op: n.Op}
	if err := lowerQuantOp(&st, &quantOp{node: n, inPer: ins, outPer: out, inQ: inQ, outQ: outQ}); err != nil {
		t.Fatalf("lower %s: %v", n.Op, err)
	}
	kern, spec := bindQuantStep(&st, out.NumElements())
	return st, kern, spec
}

// runBoundQ runs one bound quantized kernel on planned scratch.
func runBoundQ(t *testing.T, kern kernelFunc[int8], spec scratchSpec, batch int, dst []int8, srcs [][]int8) {
	t.Helper()
	var sb scratchBufs
	sb.ensure(spec, batch)
	rc := runCtx{batch: batch, spec: spec, scratch: &sb}
	if err := kern(&rc, dst, srcs); err != nil {
		t.Fatal(err)
	}
}

// TestQuantAddMatchesScalar holds the accumulate-pass Add to the scalar
// definition (the sum of every operand's table entry plus the output
// zero point, saturated) for two and three operands, with and without a
// [C,1,1] operand, on planes that are ragged, longer than one scratch
// chunk, and one-dimensional.
func TestQuantAddMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	outQ := tensor.QuantParams{Scale: 0.031, Zero: -9}
	for _, out := range []tensor.Shape{{5, 7, 9}, {3, 70, 70}, {300}} {
		bc := tensor.Shape{out[0], 1, 1}
		cases := [][]tensor.Shape{{out, out}, {out, out, out}}
		if len(out) == 3 {
			cases = append(cases, []tensor.Shape{out, bc}, []tensor.Shape{out, bc, out}, []tensor.Shape{out, out, bc})
		}
		for _, ins := range cases {
			for _, batch := range []int{1, 3} {
				inQ := make([]tensor.QuantParams, len(ins))
				srcs := make([][]int8, len(ins))
				for i, s := range ins {
					inQ[i] = tensor.QuantParams{Scale: 0.01 + 0.02*rng.Float32(), Zero: int32(rng.Intn(41) - 20)}
					srcs[i] = make([]int8, batch*s.NumElements())
					for j := range srcs[i] {
						srcs[i][j] = int8(rng.Intn(256) - 128)
					}
				}
				_, kern, spec := lowerAndBind(t, &nn.Node{Name: "add", Op: nn.OpAdd}, ins, out, inQ, outQ)
				n := out.NumElements()
				got := make([]int8, batch*n)
				runBoundQ(t, kern, spec, batch, got, srcs)
				hw := n / out[0]
				luts := make([]*[256]int32, len(ins))
				for i := range luts {
					luts[i] = buildAddLUT(inQ[i], outQ)
				}
				for j := range got {
					acc := outQ.Zero
					for i, s := range ins {
						k := j
						if !s.Equal(out) {
							k = j / hw // the [C,1,1] operand holds one code per plane
						}
						code := srcs[i][k]
						acc += luts[i][int(code)+128]
					}
					if want := tensor.ClampInt8(acc); got[j] != want {
						t.Fatalf("%v batch %d: dst[%d] = %d, want %d", ins, batch, j, got[j], want)
					}
				}
			}
		}
	}
}

// TestQuantMulMatchesScalar holds Mul, under a [C,1,1] second operand and
// element-wise, to the scalar definition: the zero-point-corrected
// product through the fixed-point multiplier, saturated.
func TestQuantMulMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, out := range []tensor.Shape{{5, 7, 9}, {3, 70, 70}, {300}, {40, 2, 2}} {
		cases := [][]tensor.Shape{{out, out}}
		if len(out) == 3 {
			cases = append(cases, []tensor.Shape{out, {out[0], 1, 1}})
		}
		for _, ins := range cases {
			for _, batch := range []int{1, 3} {
				inQ := []tensor.QuantParams{{Scale: 0.02, Zero: int32(rng.Intn(256) - 128)}, {Scale: 0.004, Zero: int32(rng.Intn(256) - 128)}}
				outQ := tensor.QuantParams{Scale: 0.01, Zero: int32(rng.Intn(41) - 20)}
				srcs := make([][]int8, 2)
				for i, s := range ins {
					srcs[i] = make([]int8, batch*s.NumElements())
					for j := range srcs[i] {
						srcs[i][j] = int8(rng.Intn(256) - 128)
					}
				}
				kern, spec, err := bindQuantMul(ins, out, inQ, outQ)
				if err != nil {
					t.Fatal(err)
				}
				n := out.NumElements()
				got := make([]int8, batch*n)
				runBoundQ(t, kern, spec, batch, got, srcs)
				req := tensor.NewRequant(float64(inQ[0].Scale) * float64(inQ[1].Scale) / float64(outQ.Scale))
				hw := n / out[0]
				for j := range got {
					k := j
					if !ins[1].Equal(out) {
						k = j / hw
					}
					prod := (int32(srcs[0][j]) - inQ[0].Zero) * (int32(srcs[1][k]) - inQ[1].Zero)
					if want := tensor.ClampInt8(outQ.Zero + req.Apply(prod)); got[j] != want {
						t.Fatalf("%v batch %d: dst[%d] = %d, want %d", ins, batch, j, got[j], want)
					}
				}
			}
		}
	}
}

// TestQuantConvGemmFallsBackWithoutPlan pins the routing guard of
// bindQuantConvGemm: a GEMM-eligible geometry whose zero point is not an
// int8 code binds the plane form (and still computes); every stride has
// a segment plan and binds the GEMM form.
func TestQuantConvGemmFallsBackWithoutPlan(t *testing.T) {
	for _, c := range []struct {
		name   string
		stride int
		zp     int32
		gemm   bool
	}{{"ordinary", 1, 3, true}, {"wide zero point", 1, 300, false}, {"stride 3", 3, 3, true}} {
		g := convGeom{inC: 8, inH: 9, inW: 9, outC: 8, outH: (9-3)/c.stride + 1, outW: (9-3)/c.stride + 1,
			kh: 3, kw: 3, sh: c.stride, sw: c.stride, icPerG: 8, ocPerG: 8}
		if !convGemmEligible(g) {
			t.Fatalf("%s: geometry should be GEMM-eligible", c.name)
		}
		p := &qconv{g: g, w: make([]int8, 8*8*9), bias32: make([]int32, 8), req: make([]tensor.Requant, 8), zpIn: c.zp}
		if _, _, ok := bindQuantConvGemm(p); ok != c.gemm {
			t.Errorf("%s: bindQuantConvGemm ok = %v, want %v", c.name, ok, c.gemm)
		}
	}
}

// TestAvgPoolWindowInPadding: a pad at least the kernel's leaves
// windows wholly in the padding. They count no tap, as in the
// interpreter's pool: FP32 reads 0 and INT8 the output zero point.
func TestAvgPoolWindowInPadding(t *testing.T) {
	n := &nn.Node{Op: nn.OpAvgPool, Attrs: nn.Attrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3}}
	in, out := tensor.Shape{1, 2, 2}, tensor.Shape{1, 8, 8}
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	want, err := pool(n, x, false)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := bindAvgPool(n, in, out)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, out.NumElements())
	rc := runCtx{batch: 1}
	if err := kern(&rc, got, [][]float32{x.F32}); err != nil {
		t.Fatal(err)
	}
	for i, w := range want.F32 {
		if got[i] != w {
			t.Fatalf("FP32 [%d] = %g, want %g", i, got[i], w)
		}
	}
	inQ, outQ := tensor.QuantParams{Scale: 0.5, Zero: 5}, tensor.QuantParams{Scale: 0.25, Zero: -3}
	_, qkern, spec := lowerAndBind(t, n, []tensor.Shape{in}, out, []tensor.QuantParams{inQ}, outQ)
	codes := []int8{7, 9, 11, 13} // reals 1, 2, 3, 4
	qgot := make([]int8, out.NumElements())
	runBoundQ(t, qkern, spec, 1, qgot, [][]int8{codes})
	for i, w := range want.F32 {
		if qw := outQ.Quantize(w); qgot[i] != qw {
			t.Fatalf("INT8 [%d] = %d, want %d", i, qgot[i], qw)
		}
	}
}
