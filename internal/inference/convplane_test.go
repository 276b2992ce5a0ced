package inference

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// convCase is one convolution geometry of the plane-form and GEMM-form
// tests.
type convCase struct {
	inH, inW, kh, kw, sh, sw, ph, pw int
	groups, icPerG, batch            int
	seed                             int64
}

func (c convCase) String() string {
	return fmt.Sprintf("in%dx%d k%dx%d s%dx%d p%dx%d g%d ic%d b%d seed%d",
		c.inH, c.inW, c.kh, c.kw, c.sh, c.sw, c.ph, c.pw, c.groups, c.icPerG, c.batch, c.seed)
}

// valid reports whether the case has a non-empty output.
func (c convCase) valid() bool {
	return c.inH+2*c.ph >= c.kh && c.inW+2*c.pw >= c.kw
}

// gemm reports the side of convGemmEligible the case falls on: the
// packed GEMM route (true) or the direct plane form.
func (c convCase) gemm() bool {
	return convGemmEligible(&ConvGeom{InC: c.groups * c.icPerG, ICPerG: c.icPerG, KH: c.kh, KW: c.kw})
}

// randomConvCase draws a geometry from the ranges both conv routes must
// cover: planes 1..40 a side, odd kernels to 7, strides to 4 (1 and 2
// are the specialized copy-ins and gathers, 3 and 4 the general ones),
// every pad up to k-1, which exceeds the width on narrow planes, and
// channel reductions from depthwise and single-channel stems to 16 deep.
func randomConvCase(rng *rand.Rand) convCase {
	ks := []int{1, 3, 5, 7}
	c := convCase{
		inH: 1 + rng.Intn(40), inW: 1 + rng.Intn(40),
		kh: ks[rng.Intn(4)], kw: ks[rng.Intn(4)],
		sh: 1 + rng.Intn(4), sw: 1 + rng.Intn(4),
		groups: 1 + rng.Intn(4), icPerG: []int{1, 3, 8, 16}[rng.Intn(4)],
		batch: []int{1, 3, 8}[rng.Intn(3)],
		seed:  rng.Int63(),
	}
	if rng.Intn(4) > 0 {
		c.sw = c.sh // square strides are the common case
	}
	c.ph, c.pw = rng.Intn(c.kh), rng.Intn(c.kw)
	return c
}

// sweepConvCases runs check on random valid geometries until each side
// of convGemmEligible has had its quota, and reports how many took each
// route.
func sweepConvCases(t *testing.T, seed int64, check func(i int, c convCase)) {
	rng := rand.New(rand.NewSource(seed))
	quota := [2]int{pickCases(400, 80), pickCases(200, 40)} // plane form, GEMM form
	var ran [2]int
	for ran != quota {
		c := randomConvCase(rng)
		side := 0
		if c.gemm() {
			side = 1
		}
		if !c.valid() || ran[side] == quota[side] {
			continue
		}
		check(ran[0]+ran[1], c)
		ran[side]++
	}
	t.Logf("%d cases on the plane form, %d on the GEMM form", ran[0], ran[1])
}

// graph builds the single grouped convolution of the case, with a
// bias, and a matching input whose values include the given specials.
func (c convCase) graph(specials []float32) (*nn.Graph, map[string]*tensor.Tensor) {
	rng := rand.New(rand.NewSource(c.seed))
	inC := c.groups * c.icPerG
	outC := c.groups * (1 + rng.Intn(2))
	n := &nn.Node{Name: "conv", Op: nn.OpConv, Inputs: []string{"in"}, Attrs: nn.Attrs{
		KernelH: c.kh, KernelW: c.kw, StrideH: c.sh, StrideW: c.sw, PadH: c.ph, PadW: c.pw,
		Groups: c.groups, OutC: outC, Bias: true,
	}}
	w := tensor.New(tensor.FP32, outC, c.icPerG, c.kh, c.kw)
	for i := range w.F32 {
		w.F32[i] = rng.Float32()*2 - 1
	}
	bias := tensor.New(tensor.FP32, outC)
	for i := range bias.F32 {
		bias.F32[i] = rng.Float32() - 0.5
	}
	n.SetWeight(nn.WeightKey, w)
	n.SetWeight(nn.BiasKey, bias)
	g := nn.NewGraph("convplane")
	g.MustAdd(&nn.Node{Name: "in", Op: nn.OpInput, Attrs: nn.Attrs{Shape: []int{inC, c.inH, c.inW}}})
	g.MustAdd(n)
	g.Outputs = []string{"conv"}
	in := tensor.New(tensor.FP32, c.batch, inC, c.inH, c.inW)
	for i := range in.F32 {
		in.F32[i] = rng.Float32()*4 - 2
		if len(specials) > 0 && rng.Intn(6) == 0 {
			in.F32[i] = specials[rng.Intn(len(specials))]
		}
	}
	return g, map[string]*tensor.Tensor{"in": in}
}

// checkConvF32 runs the case through the engine and the interpreter
// and demands bitwise equal outputs.
func checkConvF32(t testing.TB, c convCase, g *nn.Graph, in map[string]*tensor.Tensor) {
	t.Helper()
	eng, err := Compile(g)
	if err != nil {
		t.Fatalf("%v: compile: %v", c, err)
	}
	it, err := NewInterpreter(g)
	if err != nil {
		t.Fatalf("%v: interpreter: %v", c, err)
	}
	want, err := it.Run(in)
	if err != nil {
		t.Fatalf("%v: interpreter run: %v", c, err)
	}
	got, err := eng.Run(in)
	if err != nil {
		t.Fatalf("%v: engine run: %v", c, err)
	}
	w, o := want["conv"], got["conv"]
	if !w.Shape.Equal(o.Shape) {
		t.Fatalf("%v: shape %v, want %v", c, o.Shape, w.Shape)
	}
	for i := range w.F32 {
		if math.Float32bits(o.F32[i]) != math.Float32bits(w.F32[i]) {
			t.Fatalf("%v: element %d = %x (%g), want %x (%g)", c, i,
				math.Float32bits(o.F32[i]), o.F32[i], math.Float32bits(w.F32[i]), w.F32[i])
		}
	}
}

// f32Specials are the input lanes the padded form must carry through
// unchanged: they only ever meet in-bounds taps. The NaN is the one
// Inf-Inf produces, so every NaN in play has one bit pattern: which of
// two NaN operands an add keeps is the compiler's choice of operand
// order, not something either executor defines.
var f32Specials = []float32{
	math.Float32frombits(0xffc00000), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), 1e-42, -1e-42, math.MaxFloat32,
}

// TestConvPlaneFormMatchesInterpreter is the FP32 property test of both
// conv routes, the padded plane form and the planned GEMM pack: random
// geometries on either side of convGemmEligible, ordinary and
// special-valued inputs, bitwise against the interpreter.
func TestConvPlaneFormMatchesInterpreter(t *testing.T) {
	sweepConvCases(t, 71, func(i int, c convCase) {
		var specials []float32
		if i%3 == 0 {
			specials = f32Specials
		}
		g, in := c.graph(specials)
		checkConvF32(t, c, g, in)
	})
	for _, c := range narrowPlaneCases {
		if c.gemm() {
			t.Fatalf("%v: pinned for the plane form, routes to the GEMM form", c)
		}
		for _, specials := range [][]float32{nil, f32Specials} {
			g, in := c.graph(specials)
			checkConvF32(t, c, g, in)
		}
	}
	for _, c := range denseShapedCases {
		for _, specials := range [][]float32{nil, f32Specials} {
			g, in := c.graph(specials)
			checkConvF32(t, c, g, in)
		}
	}
}

// denseShapedCases pins the squeeze-excite shape, a 1x1 kernel over a
// 1x1 plane with one group, which both binders run on their dense core:
// one to sixteen channels deep, a stride that changes nothing.
// denseConvNet covers it without a bias and with fused
// tails.
var denseShapedCases = []convCase{
	{inH: 1, inW: 1, kh: 1, kw: 1, sh: 1, sw: 1, groups: 1, icPerG: 1, batch: 3, seed: 31},
	{inH: 1, inW: 1, kh: 1, kw: 1, sh: 1, sw: 1, groups: 1, icPerG: 3, batch: 1, seed: 32},
	{inH: 1, inW: 1, kh: 1, kw: 1, sh: 1, sw: 1, groups: 1, icPerG: 16, batch: 8, seed: 33},
	{inH: 1, inW: 1, kh: 1, kw: 1, sh: 2, sw: 2, groups: 1, icPerG: 8, batch: 3, seed: 34},
}

// narrowPlaneCases pins the plane-form geometries where a row is not a
// whole number of vectors, which the random sweep only meets by chance:
// stride-2 planes of odd width (the copy-in's column phases differ in
// length and the last column has no partner), planes whose output rows
// are narrower than one vector (4x4 and 3x3: the tile epilogue's
// four-wide and single-value steps), and pointwise planes of 16 and 9
// pixels. All depthwise or 3 deep, so all on the plane form.
var narrowPlaneCases = []convCase{
	{inH: 33, inW: 31, kh: 3, kw: 3, sh: 2, sw: 2, ph: 1, pw: 1, groups: 4, icPerG: 1, batch: 3, seed: 11},
	{inH: 17, inW: 15, kh: 5, kw: 5, sh: 2, sw: 2, ph: 2, pw: 2, groups: 3, icPerG: 1, batch: 1, seed: 12},
	{inH: 9, inW: 7, kh: 3, kw: 3, sh: 2, sw: 2, ph: 1, pw: 1, groups: 2, icPerG: 1, batch: 3, seed: 13},
	{inH: 6, inW: 19, kh: 3, kw: 5, sh: 1, sw: 2, ph: 1, pw: 0, groups: 4, icPerG: 1, batch: 8, seed: 14},
	{inH: 4, inW: 4, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, groups: 4, icPerG: 1, batch: 3, seed: 15},
	{inH: 3, inW: 3, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, groups: 4, icPerG: 1, batch: 3, seed: 16},
	{inH: 8, inW: 8, kh: 3, kw: 3, sh: 2, sw: 2, ph: 1, pw: 1, groups: 4, icPerG: 1, batch: 1, seed: 17},
	{inH: 5, inW: 5, kh: 5, kw: 5, sh: 2, sw: 2, ph: 2, pw: 2, groups: 3, icPerG: 1, batch: 3, seed: 18},
	{inH: 4, inW: 4, kh: 1, kw: 1, sh: 1, sw: 1, groups: 2, icPerG: 3, batch: 3, seed: 19},
	{inH: 3, inW: 3, kh: 1, kw: 1, sh: 1, sw: 1, groups: 2, icPerG: 3, batch: 1, seed: 20},
}

// pickCases trims the randomized sweeps under -short.
func pickCases(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// TestConvPlanePredicateSides pins both sides of convPadExact on two
// padded geometries, one per route: ordinary weights bind the form that
// reads a zero border (the padded plane form, or the GEMM tile on the
// GEMM-eligible geometry; both declare scratch), while a -0 bias or an
// Inf or NaN tap on a border position bind the clipped loop (no
// scratch) — and every variant still matches the interpreter bit for
// bit, NaN and Inf inputs included.
func TestConvPlanePredicateSides(t *testing.T) {
	for _, base := range []struct {
		prefix string
		c      convCase
	}{
		{"", convCase{inH: 9, inW: 7, kh: 3, kw: 5, sh: 2, sw: 2, ph: 1, pw: 2, groups: 3, icPerG: 1, batch: 3, seed: 5}},
		{"gemm ", convCase{inH: 9, inW: 7, kh: 3, kw: 3, sh: 1, sw: 1, ph: 1, pw: 1, groups: 1, icPerG: 8, batch: 2, seed: 5}},
	} {
		c := base.c
		for _, v := range []struct {
			name   string
			mutate func(w, bias *tensor.Tensor)
			padded bool
		}{
			{"ordinary", func(w, bias *tensor.Tensor) {}, true},
			{"zero bias", func(w, bias *tensor.Tensor) { bias.F32[0] = 0 }, true},
			{"negative-zero bias", func(w, bias *tensor.Tensor) { bias.F32[0] = float32(math.Copysign(0, -1)) }, false},
			{"inf tap", func(w, bias *tensor.Tensor) { w.F32[0] = float32(math.Inf(-1)) }, false},
			{"nan tap", func(w, bias *tensor.Tensor) { w.F32[len(w.F32)-1] = f32Specials[0] }, false},
		} {
			t.Run(base.prefix+v.name, func(t *testing.T) {
				g, in := c.graph(f32Specials)
				n := g.Node("conv")
				v.mutate(n.Weight(nn.WeightKey), n.Weight(nn.BiasKey))
				outH := (c.inH+2*c.ph-c.kh)/c.sh + 1
				outW := (c.inW+2*c.pw-c.kw)/c.sw + 1
				_, spec, err := bindConv(n, tensor.Shape{c.groups * c.icPerG, c.inH, c.inW}, tensor.Shape{n.Attrs.OutC, outH, outW}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := spec.f32 > 0; got != v.padded {
					t.Errorf("zero-border form bound = %v, want %v", got, v.padded)
				}
				checkConvF32(t, c, g, in)
			})
		}
	}
}

// FuzzConvPlaneF32 lets the fuzzer pick the geometry and seed of the
// FP32 check, on either route.
func FuzzConvPlaneF32(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(32), uint8(32), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), int64(2))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(3), uint8(2), uint8(2), uint8(6), uint8(6), uint8(5), int64(3))
	f.Add(uint8(19), uint8(16), uint8(1), uint8(1), uint8(2), uint8(2), uint8(1), uint8(1), uint8(9), int64(4))  // GEMM form, 8 deep, stride 3
	f.Add(uint8(22), uint8(30), uint8(2), uint8(1), uint8(3), uint8(3), uint8(3), uint8(0), uint8(16), int64(5)) // GEMM form, stem, stride 4
	f.Fuzz(func(t *testing.T, inH, inW, kh, kw, sh, sw, ph, pw, misc uint8, seed int64) {
		c := fuzzConvCase(inH, inW, kh, kw, sh, sw, ph, pw, misc, seed)
		if !c.valid() {
			t.Skip()
		}
		g, in := c.graph(f32Specials)
		checkConvF32(t, c, g, in)
	})
}

// fuzzConvCase folds fuzzer bytes into the tested ranges.
func fuzzConvCase(inH, inW, kh, kw, sh, sw, ph, pw, misc uint8, seed int64) convCase {
	c := convCase{
		inH: 1 + int(inH)%40, inW: 1 + int(inW)%40,
		kh: 1 + 2*(int(kh)%4), kw: 1 + 2*(int(kw)%4),
		sh: 1 + int(sh)%4, sw: 1 + int(sw)%4,
		groups: 1 + int(misc)%4, icPerG: []int{1, 3, 8, 16}[int(misc>>2)%4],
		batch: []int{1, 3, 8}[int(misc>>4)%3],
		seed:  seed,
	}
	c.ph, c.pw = int(ph)%c.kh, int(pw)%c.kw
	return c
}

// qconvRef is the clipped reference of the integer direct convolution:
// per output pixel, the folded bias plus every in-bounds tap of the
// zero-point-shifted input, requantized, then recoded through the
// channel's fused table when the conv has one. Out-of-bounds taps are
// skipped, which in integers is exactly what the zero border adds.
func qconvRef(dst, xv []int8, pc *PlanConv, batch int) {
	g := &pc.Geom
	for b := 0; b < batch; b++ {
		for oc := 0; oc < g.OutC; oc++ {
			icBase := oc / g.OCPerG * g.ICPerG
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					acc := pc.Bias[oc]
					for ic := 0; ic < g.ICPerG; ic++ {
						for ky := 0; ky < g.KH; ky++ {
							iy := oy*g.SH - g.PH + ky
							if iy < 0 || iy >= g.InH {
								continue
							}
							for kx := 0; kx < g.KW; kx++ {
								ix := ox*g.SW - g.PW + kx
								if ix < 0 || ix >= g.InW {
									continue
								}
								x := int32(xv[((b*g.InC+icBase+ic)*g.InH+iy)*g.InW+ix]) - pc.ZPIn
								acc += int32(pc.W[((oc*g.ICPerG+ic)*g.KH+ky)*g.KW+kx]) * x
							}
						}
					}
					code := tensor.ClampInt8(pc.ZPOut + pc.Req[oc].Apply(acc))
					if pc.Post != nil {
						code = pc.Post[oc][int(code)+128]
					}
					dst[((b*g.OutC+oc)*g.OutH+oy)*g.OutW+ox] = code
				}
			}
		}
	}
}

// checkConvI8 lowers the case's convolution, draws its zero points over
// the whole int8 range (both ends included) and, in three cases of four,
// a fused per-channel code table, binds it as an integer kernel, runs it
// on random int8 codes with planned scratch, and demands the exact codes
// of qconvRef. A GEMM-eligible case also runs its twins, which must
// produce the same codes: the plane form of the same conv and, on a host
// with the u8×s8 body, the int16 GEMM form a host without VNNI binds
// (haveQuantConvU8 forced off for the bind, as TestTablesWithoutVBMI
// forces VBMI off).
func checkConvI8(t testing.TB, c convCase) {
	t.Helper()
	g, _ := c.graph(nil)
	n := g.Node("conv")
	inC := c.groups * c.icPerG
	in := tensor.Shape{inC, c.inH, c.inW}
	out := tensor.Shape{n.Attrs.OutC, (c.inH+2*c.ph-c.kh)/c.sh + 1, (c.inW+2*c.pw-c.kw)/c.sw + 1}
	rng := rand.New(rand.NewSource(c.seed))
	zp := func() int32 { return []int32{-128, 127, int32(rng.Intn(256) - 128)}[rng.Intn(3)] }
	inQ := tensor.QuantParams{Scale: 0.02, Zero: zp()}
	outQ := tensor.QuantParams{Scale: 0.05, Zero: zp()}
	st, _, _ := lowerAndBind(t, n, []tensor.Shape{in}, out, []tensor.QuantParams{inQ}, outQ)
	pc := *st.Conv
	if rng.Intn(4) != 0 {
		pc.Post = make([]*[256]int8, pc.Geom.OutC)
		for oc := range pc.Post {
			pc.Post[oc] = new([256]int8)
			for i := range pc.Post[oc] {
				pc.Post[oc][i] = int8(rng.Intn(256) - 128)
			}
		}
	}

	xv := make([]int8, c.batch*in.NumElements())
	for i := range xv {
		xv[i] = int8(rng.Intn(256) - 128)
	}
	want := make([]int8, c.batch*out.NumElements())
	qconvRef(want, xv, &pc, c.batch)
	run := func(form string, kern kernelFunc[int8], spec scratchSpec) {
		got := make([]int8, len(want))
		var sb scratchBufs
		sb.ensure(spec, c.batch)
		rc := runCtx{batch: c.batch, spec: spec, scratch: &sb}
		if err := kern(&rc, got, [][]int8{xv}); err != nil {
			t.Fatalf("%v: %s run: %v", c, form, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v zp %d/%d post %v: %s code %d = %d, want %d", c, pc.ZPIn, pc.ZPOut, pc.Post != nil, form, i, got[i], want[i])
			}
		}
	}
	kern, spec := bindQuantConv(&pc)
	run("routed", kern, spec)
	if c.gemm() {
		run("plane twin", bindQuantConvPlane(&pc), scratchSpec{})
		if haveQuantConvU8 {
			haveQuantConvU8 = false
			kern, spec := bindQuantConv(&pc)
			haveQuantConvU8 = true
			run("int16 twin", kern, spec)
		}
	}
}

// TestQConvPlaneFormMatchesClipped is the INT8 property test of the
// padded plane form and the GEMM form against the clipped reference.
func TestQConvPlaneFormMatchesClipped(t *testing.T) {
	sweepConvCases(t, 72, func(_ int, c convCase) { checkConvI8(t, c) })
	for _, c := range denseShapedCases {
		checkConvI8(t, c)
	}
}

// TestQuantDenseShapedConvIsExact binds every dense-shaped conv of
// denseConvNet's INT8 plan (with and without a bias, with a fused
// activation and with a fused batch norm, each carried as its PlanConv's
// Req and Post) and demands of the dense core the codes the conv plane
// form computes from the same PlanConv.
func TestQuantDenseShapedConvIsExact(t *testing.T) {
	g := denseConvNet()
	samples, err := nn.SyntheticCalibration(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := calibrateVia(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildQuantPlan(g, schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	const batch = 5
	dense := 0
	for _, st := range p.Steps {
		if st.Conv == nil {
			continue
		}
		pg := st.Conv.Geom
		if !convDense(&pg) {
			continue
		}
		dense++
		xv := make([]int8, batch*pg.InC)
		for i := range xv {
			xv[i] = int8(rng.Intn(256) - 128)
		}
		want := make([]int8, batch*pg.OutC)
		got := make([]int8, len(want))
		runBoundQ(t, bindQuantConvPlane(st.Conv), scratchSpec{}, batch, want, [][]int8{xv})
		kern, spec := bindQuantConv(st.Conv)
		runBoundQ(t, kern, spec, batch, got, [][]int8{xv})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (post %v): code %d = %d, the plane form's %d", st.Name, st.Conv.Post != nil, i, got[i], want[i])
			}
		}
	}
	if dense < 4 {
		t.Errorf("plan has %d dense-shaped convs, want denseConvNet's 4", dense)
	}
}

// FuzzQConvPlane lets the fuzzer pick the geometry and seed of the
// INT8 check, on either route.
func FuzzQConvPlane(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(16), uint8(16), uint8(2), uint8(2), uint8(1), uint8(1), uint8(2), uint8(2), uint8(9), int64(2))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(3), uint8(2), uint8(2), uint8(6), uint8(6), uint8(5), int64(3))
	f.Add(uint8(19), uint8(16), uint8(1), uint8(1), uint8(2), uint8(2), uint8(1), uint8(1), uint8(9), int64(4))  // GEMM form, 8 deep, stride 3
	f.Add(uint8(22), uint8(30), uint8(2), uint8(1), uint8(3), uint8(3), uint8(3), uint8(0), uint8(16), int64(5)) // GEMM form, stem, stride 4
	f.Fuzz(func(t *testing.T, inH, inW, kh, kw, sh, sw, ph, pw, misc uint8, seed int64) {
		c := fuzzConvCase(inH, inW, kh, kw, sh, sw, ph, pw, misc, seed)
		if !c.valid() {
			t.Skip()
		}
		checkConvI8(t, c)
	})
}
