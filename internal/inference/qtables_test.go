package inference

import (
	"fmt"
	"math"
	"testing"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	modelzoo "vedliot/internal/zoo"
)

// The code tables have one definition, stated stage by stage with the
// scalar quantizer: entry c of a stage is
// outQ.Quantize(f(inQ.Dequantize(c))), and a chain is its stages looked
// up one after the other. The builders (buildLUT, buildAffineLUTs,
// composeLUT, buildEpilogueLUTs) and the filter quantizer share one bulk
// loop, tensor.QuantParams.QuantizeTo; everything here holds them to
// the scalar form entry for entry, so a change of the rounding rule, or
// of the division into a multiplication by the reciprocal, fails by
// name.

// scalarLUT is the definition of one stage.
func scalarLUT(inQ, outQ tensor.QuantParams, f func(float32) float32) [256]int8 {
	var lut [256]int8
	for c := -128; c <= 127; c++ {
		lut[c+128] = outQ.Quantize(f(inQ.Dequantize(int8(c))))
	}
	return lut
}

func affine(s, sh float32) func(float32) float32 {
	return func(x float32) float32 { return x*s + sh }
}

func diffLUT(t *testing.T, what string, got *[256]int8, want [256]int8) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: code %d maps to %d, the scalar definition says %d", what, i-128, got[i], want[i])
			return
		}
	}
}

// TestCodeTablesMatchScalarDefinition, part one: every fused chain of
// every zoo model, as the INT8 compile builds it.
func TestCodeTablesMatchScalarDefinition(t *testing.T) {
	chains, tables := 0, 0
	for _, e := range modelzoo.Entries() {
		g := e.Build()
		samples, err := nn.SyntheticCalibration(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := calibrateVia(g, samples)
		if err != nil {
			t.Fatal(err)
		}
		m, err := lowerQuantized(g, schema)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, op := range m.Ops {
			if len(op.Fused) == 0 || op.Island {
				continue
			}
			channels := channelCount(m.Values[op.Out].Shape)
			got, err := buildEpilogueLUTs(m, op, channels)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, op.Name, err)
			}
			if len(got) != channels {
				t.Fatalf("%s/%s: %d tables for %d channels", e.Name, op.Name, len(got), channels)
			}
			chains++
			for ch := 0; ch < channels; ch++ {
				diffLUT(t, fmt.Sprintf("%s/%s channel %d", e.Name, op.Name, ch), got[ch], scalarChain(t, m, op, ch, channels))
				tables++
			}
		}
	}
	if chains == 0 {
		t.Fatal("no fused chain in the zoo: the test checks nothing")
	}
	t.Logf("%d fused chains, %d channel tables", chains, tables)
}

// scalarChain is the definition of one channel's composed table: the
// stages' scalar tables applied in chain order.
func scalarChain(t *testing.T, m *ir.Module, op *ir.Op, ch, channels int) [256]int8 {
	t.Helper()
	var chain [256]int8
	for i := range chain {
		chain[i] = int8(i - 128)
	}
	prevQ := m.Values[op.Fused[0].Pre].QP
	for i := range op.Fused {
		f := &op.Fused[i]
		outQ := m.Values[op.FusedOut(i)].QP
		var fn func(float32) float32
		if f.Kind == nn.OpBatchNorm {
			scale, shift, err := bnScaleShift(nodeFromFused(f), channels)
			if err != nil {
				t.Fatal(err)
			}
			fn = affine(scale[ch], shift[ch])
		} else {
			var err error
			if fn, err = activationFn(nodeFromFused(f)); err != nil {
				t.Fatal(err)
			}
		}
		stage := scalarLUT(prevQ, outQ, fn)
		for c, code := range chain {
			chain[c] = stage[int(code)+128]
		}
		prevQ = outQ
	}
	return chain
}

// adversarialQuant are mappings a calibration would not produce but a
// hand-written schema can: zero and negative scales, zero points at the
// ends of the code range and far outside it, and scales that are exact
// binary fractions, so that with the matching input mapping every other
// code lands on a half-code boundary. From 49/131072 onto 49/65536 most
// of those boundaries are ones where multiplying by the reciprocal of
// the scale falls short of the half that dividing by it reaches.
var adversarialQuant = []tensor.QuantParams{
	{Scale: 49.0 / 131072, Zero: 0},
	{Scale: 49.0 / 65536, Zero: 2},
	{Scale: 0.05, Zero: 0},
	{Scale: 0.013, Zero: 127},
	{Scale: 0.4, Zero: -128},
	{Scale: 3.0 / 256, Zero: 3},
	{Scale: 3.0 / 512, Zero: -7},
	{Scale: 7.0 / 1024, Zero: 0},
	{Scale: 0, Zero: 5},
	{Scale: 0, Zero: 300},
	{Scale: -0.02, Zero: 1},
	{Scale: 1e-30, Zero: 0},
	{Scale: 1e30, Zero: -128},
	{Scale: 0.01, Zero: math.MaxInt32},
	{Scale: 0.01, Zero: math.MinInt32},
	{Scale: float32(math.NaN()), Zero: 0},
	{Scale: float32(math.Inf(1)), Zero: 4},
}

var (
	nan32 = float32(math.NaN())
	inf32 = float32(math.Inf(1))
)

// adversarialAffine are batch-norm folds: scale, shift.
var adversarialAffine = [][2]float32{
	{1, 0}, {0.5, 0.25}, {0, 0.3}, {-1.5, 0.1}, {1, nan32}, {1, inf32}, {1, -inf32},
	{nan32, 0}, {inf32, 0}, {0, inf32}, {1e30, 0}, {1, 3.0 / 512}, {0.5, -3.0 / 1024},
}

// TestCodeTablesAdversarial is part two: every pairing of the mappings
// above through an identity recode, an activation and a batch-norm
// affine, and two-stage chains through composeLUT. It also demands that
// the set is sharp: on some entry the reciprocal form (QuantizeSlice's)
// must disagree with the division form, or a swap of the two would pass.
func TestCodeTablesAdversarial(t *testing.T) {
	relu, _ := activationFn(&nn.Node{Op: nn.OpReLU})
	hswish, _ := activationFn(&nn.Node{Op: nn.OpHSwish})
	identity := func(v float32) float32 { return v }
	ties, reciprocalDiffers := 0, 0
	for _, inQ := range adversarialQuant {
		for _, outQ := range adversarialQuant {
			name := fmt.Sprintf("in %+v out %+v", inQ, outQ)
			for fname, f := range map[string]func(float32) float32{"identity": identity, "relu": relu, "hswish": hswish} {
				diffLUT(t, name+" "+fname, buildLUT(inQ, outQ, f), scalarLUT(inQ, outQ, f))
			}
			scale := make([]float32, len(adversarialAffine))
			shift := make([]float32, len(adversarialAffine))
			for i, a := range adversarialAffine {
				scale[i], shift[i] = a[0], a[1]
			}
			slab := buildAffineLUTs(inQ, outQ, scale, shift)
			for ch := range slab {
				what := fmt.Sprintf("%s affine %v", name, adversarialAffine[ch])
				want := scalarLUT(inQ, outQ, affine(scale[ch], shift[ch]))
				diffLUT(t, what, &slab[ch], want)

				// A second stage, composed in place.
				next := scalarLUT(outQ, inQ, relu)
				composeLUT(&slab[ch], &next)
				for c := range want {
					want[c] = next[int(want[c])+128]
				}
				diffLUT(t, what+" then relu", &slab[ch], want)
			}
			if outQ.Scale == 0 || outQ.Scale != outQ.Scale {
				continue
			}
			for c := -128; c <= 127; c++ {
				v := inQ.Dequantize(int8(c))
				x := float64(v) / float64(outQ.Scale)
				if d := x - math.Trunc(x); d != 0.5 && d != -0.5 {
					continue
				}
				ties++
				var viaReciprocal [1]int8
				tensor.QuantizeSlice(viaReciprocal[:], []float32{v}, outQ)
				if viaReciprocal[0] != outQ.Quantize(v) {
					reciprocalDiffers++
				}
			}
		}
	}
	t.Logf("%d entries on a half-code boundary, on %d of them the reciprocal form gives another code", ties, reciprocalDiffers)
	if ties == 0 || reciprocalDiffers == 0 {
		t.Fatal("the adversarial set has no half-code boundary that tells the two quantizer forms apart")
	}
}

// TestQuantizeFilterMatchesQuantize checks the filter lowering element
// by element: per-channel symmetric scales, every code the scalar
// quantizer's, for FP32 and FP16 storage and the verbatim INT8 path.
func TestQuantizeFilterMatchesQuantize(t *testing.T) {
	const outC, perOut = 5, 37
	w := tensor.New(tensor.FP32, outC, perOut)
	for i := range w.F32 {
		w.F32[i] = float32(math.Sin(float64(i)*0.7)) * float32(1+i%outC)
	}
	// One channel whose largest magnitude is 127 times an exact binary
	// fraction: its scale is exact and every odd multiple of half of it
	// is a tie.
	ch := w.F32[2*perOut : 3*perOut]
	for i := range ch {
		ch[i] = float32(i-perOut/2) * 3 / 512
	}
	ch[0] = 127 * 3.0 / 256
	clear(w.F32[4*perOut:]) // an all-zero channel: scale 1
	w.F32[3*perOut] = nan32 // a channel holding a NaN and an infinity
	w.F32[3*perOut+1] = -inf32

	check := func(name string, w *tensor.Tensor) {
		t.Helper()
		codes, scales := quantizeFilter(w, outC)
		vals := w.Float32s()
		for oc := 0; oc < outC; oc++ {
			q := tensor.SymmetricParams(vals[oc*perOut : (oc+1)*perOut])
			if scales[oc] != float64(q.Scale) {
				t.Errorf("%s channel %d: scale %g, want %g", name, oc, scales[oc], q.Scale)
			}
			for i := oc * perOut; i < (oc+1)*perOut; i++ {
				if want := q.Quantize(vals[i]); codes[i] != want {
					t.Errorf("%s channel %d element %d (%g): code %d, Quantize says %d", name, oc, i, vals[i], codes[i], want)
				}
			}
		}
	}
	check("fp32", w)
	check("fp16", w.Convert(tensor.FP16))

	// Symmetric per-tensor INT8 weights are adopted as they are.
	i8 := tensor.New(tensor.INT8, outC, perOut)
	i8.Quant = tensor.QuantParams{Scale: 0.02}
	for i := range i8.I8 {
		i8.I8[i] = int8(i*7 - 128)
	}
	codes, scales := quantizeFilter(i8, outC)
	for i, c := range codes {
		if c != i8.I8[i] {
			t.Fatalf("int8 element %d: code %d, stored %d", i, c, i8.I8[i])
		}
	}
	for oc, s := range scales {
		if s != float64(i8.Quant.Scale) {
			t.Fatalf("int8 channel %d: scale %g, want %g", oc, s, i8.Quant.Scale)
		}
	}
}

// FuzzBuildCodeTable holds the table builders to the scalar definition
// on arbitrary mappings, affines and activations. The affine slab has
// enough channels for buildAffineLUTs to walk the code bounds, and
// mirrors, flattens and recodes the fuzzed affine across them.
func FuzzBuildCodeTable(f *testing.F) {
	f.Add(float32(0.05), int32(0), float32(0.02), int32(-3), float32(1.5), float32(0.1), uint8(0))
	f.Add(float32(3.0/512), int32(-7), float32(3.0/256), int32(3), float32(1), float32(0), uint8(1))
	f.Add(float32(49.0/131072), int32(0), float32(49.0/65536), int32(2), float32(1), float32(0), uint8(0))
	f.Add(float32(3.0/512), int32(0), float32(3.0/256), int32(127), float32(-1), float32(3.0/512), uint8(2))
	f.Add(float32(0.4), int32(-128), float32(0), int32(300), float32(0), float32(0.3), uint8(3))
	f.Add(float32(0.01), int32(127), float32(-0.02), int32(1), nan32, float32(0), uint8(4))
	f.Add(float32(1e30), int32(5), float32(1e-30), int32(math.MinInt32), float32(1), inf32, uint8(5))
	f.Add(nan32, int32(0), inf32, int32(math.MaxInt32), float32(0.5), -inf32, uint8(6))
	acts := []nn.OpType{nn.OpReLU, nn.OpReLU6, nn.OpLeakyReLU, nn.OpSigmoid, nn.OpTanh, nn.OpHSwish, nn.OpHSigmoid, nn.OpMish}
	f.Fuzz(func(t *testing.T, inScale float32, inZero int32, outScale float32, outZero int32, s, sh float32, kind uint8) {
		inQ := tensor.QuantParams{Scale: inScale, Zero: inZero}
		outQ := tensor.QuantParams{Scale: outScale, Zero: outZero}
		act, err := activationFn(&nn.Node{Op: acts[int(kind)%len(acts)]})
		if err != nil {
			t.Fatal(err)
		}
		diffLUT(t, "activation", buildLUT(inQ, outQ, act), scalarLUT(inQ, outQ, act))

		scale, shift := []float32{s, 1, -s, 0}, []float32{sh, 0, sh, sh}
		for len(scale) < codeBoundsMinTables {
			scale, shift = append(scale, scale[len(scale)-4]/2), append(shift, -shift[len(shift)-4])
		}
		slab := buildAffineLUTs(inQ, outQ, scale, shift)
		for ch := range slab {
			diffLUT(t, fmt.Sprintf("affine %g %g", scale[ch], shift[ch]), &slab[ch], scalarLUT(inQ, outQ, affine(scale[ch], shift[ch])))
		}
		want := scalarLUT(inQ, outQ, affine(s, sh))

		next := scalarLUT(outQ, inQ, act)
		composeLUT(&slab[0], &next)
		for c := range want {
			want[c] = next[int(want[c])+128]
		}
		diffLUT(t, "affine then activation", &slab[0], want)
	})
}
