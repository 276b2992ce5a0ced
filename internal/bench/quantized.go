package bench

import (
	"fmt"

	"vedliot/internal/accel"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
)

// QuantizedStudy measures the native INT8 execution path end to end on
// a MobileNet-style workload: calibration produces the activation
// QuantSchema, the quantized plan runs the same network as the FP32
// engine (single core, the fair kernel-vs-kernel comparison), and the
// report tracks absolute time per row for both engines at batch 1 and
// 8 (and their ratio), the ~4x activation-arena reduction, top-1
// agreement with the FP32 reference, and the honest INT8 deployment of
// an EdgeTPU-class device model.
func QuantizedStudy() (*Report, error) {
	r := newReport("Toolchain — native INT8 engine vs FP32 engine")

	size := pick(64, 48)
	g := nn.MobileNetEdge(size, 10, nn.BuildOptions{Weights: true, Seed: 3})
	optimize.Pipeline(g)

	input := func(batch, seed int) map[string]*tensor.Tensor {
		in, err := nn.SyntheticInput(g, batch, seed)
		if err != nil {
			panic(err) // shapes already validated by the pipeline above
		}
		return in
	}

	// Calibration: a handful of batches through the FP32 engine derive
	// per-tensor activation ranges.
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		return nil, err
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		return nil, err
	}
	r.linef("model %s (%dx%d), calibrated %d values from %d batches",
		g.Name, size, size, len(schema.Activations), len(samples))

	fp, err := inference.Compile(g)
	if err != nil {
		return nil, err
	}
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		return nil, err
	}

	// Warm both engines' scratch pools before timing.
	warm := input(8, 9)
	if _, err := fp.Run(warm); err != nil {
		return nil, err
	}
	if _, err := q.Run(warm); err != nil {
		return nil, err
	}

	// Absolute time per row, median of reps with the engines
	// interleaved so machine noise hits both sides alike.
	reps := pick(7, 5)
	r.linef("%-24s %20s %20s %9s", "configuration (1 core)", "fp32 us/row", "int8 us/row", "fp32/int8")
	speedup := map[int]float64{}
	for _, batch := range []int{1, 8} {
		in := input(batch, 9)
		tm, err := timeRows(batch, reps,
			func() error { _, err := fp.Run(in); return err },
			func() error { _, err := q.Run(in); return err })
		if err != nil {
			return nil, err
		}
		sp := tm[0].us / tm[1].us
		speedup[batch] = sp
		r.linef("batch %-18d %12.1f (±%2.0f%%) %12.1f (±%2.0f%%) %8.2fx", batch,
			tm[0].us, tm[0].spread*50, tm[1].us, tm[1].spread*50, sp)
		tm[0].record(r, fmt.Sprintf("quant_fp32_us_per_row_batch%d", batch))
		tm[1].record(r, fmt.Sprintf("quant_int8_us_per_row_batch%d", batch))
		r.metric(fmt.Sprintf("quant_latency_batch%d", batch), "ns", tm[1].us*1e3*float64(batch))
		r.metric(fmt.Sprintf("quant_speedup_batch%d", batch), "x", sp)
	}
	r.linef("fp32/int8: %.2fx at batch 1, %.2fx at batch 8", speedup[1], speedup[8])

	// Accuracy: top-1 agreement with the FP32 engine over fresh probes.
	// A decision counts as disagreement only when the FP32 reference
	// itself separates the two classes by more than 1% probability mass
	// (or two INT8 output steps, whichever is larger) — flips inside
	// that band are ties the reference cannot resolve either, the
	// "within tolerance" criterion of the pass-validation flow.
	outQ, _ := schema.Params(g.Outputs[0])
	tieTol := 2 * float64(outQ.Scale)
	if tieTol < 0.01 {
		tieTol = 0.01
	}
	agree, probes := 0, 0
	var worst float64
	for seed := 20; seed < 24; seed++ {
		in := input(8, seed)
		want, err := fp.Run(in)
		if err != nil {
			return nil, err
		}
		got, err := q.Run(in)
		if err != nil {
			return nil, err
		}
		for _, out := range g.Outputs {
			w, o := want[out], got[out]
			d, err := tensor.MaxAbsDiff(w, o)
			if err != nil {
				return nil, err
			}
			if d > worst {
				worst = d
			}
			a, n := top1Agreement(w, o, tieTol)
			agree += a
			probes += n
		}
	}
	agreement := float64(agree) / float64(probes)
	r.linef("top-1 agreement %d/%d (tie tolerance %.4f), max |softmax diff| %.4f",
		agree, probes, tieTol, worst)
	r.metric("quant_top1_agreement", "frac", agreement)
	r.metric("quant_output_maxdiff", "abs", worst)

	// Memory: the int8 arena against the FP32 arena on the same
	// liveness plan.
	fpBytes := fp.ArenaFloatsPerSample() * 4
	qBytes := q.ArenaBytesPerSample()
	memRatio := float64(fpBytes) / float64(qBytes)
	r.linef("activation arena: %d B/sample fp32, %d B/sample int8 (%.2fx reduction)",
		fpBytes, qBytes, memRatio)
	r.metric("quant_activation_mem_ratio", "x", memRatio)
	r.linef("plan: %d calibrated values, %d FP32-fallback steps (softmax head)",
		len(schema.Activations), q.FallbackSteps())

	// Honest INT8-only accelerator deployment: the EdgeTPU-class device
	// model now executes functionally on the quantized engine, so its
	// roofline prediction is attached to genuinely quantized outputs.
	dev, err := accel.FindDevice("EdgeTPU SoM")
	if err != nil {
		return nil, err
	}
	prog, err := accel.NewQuantizedBackend(dev, schema).Compile(g)
	if err != nil {
		return nil, err
	}
	p := prog.(*accel.Program)
	m, err := p.Predict(8)
	if err != nil {
		return nil, err
	}
	r.linef("%s: native INT8 execution (quantized=%v), predicted %.2f ms @ batch 8, %.1f TOPS/W",
		dev.Name, p.Quantized(), m.LatencyMS, m.TOPSW())
	r.metric("edgetpu_predicted_ms_batch8", "ms", m.LatencyMS)

	// On a host whose FP32 vector units are as wide as its integer ones
	// INT8 buys a quarter of the activation bytes (asserted below) and
	// PMADDWD's two multiply-accumulates per lane. On the AVX-512
	// reference host its depthwise planes are one pass that reads the
	// codes where they lie and writes each output code once, and
	// fp32/int8 at batch 8 measured 1.62-1.71 in three runs (1.14-1.34
	// before that pass, in runs alternating with them). Where the host
	// also has VNNI the GEMM convolutions run VPDPBUSD's four
	// multiply-accumulates per lane, and INT8 must beat FP32 at both batch
	// sizes. Under the AVX2 clamp FP32's multi-tap plane kernel runs at
	// the GEMM rate while the INT8 planes requantize as a second pass
	// (0.77-0.84), and under the SSE2 one FP32 loses more (1.6-1.7), so
	// the check there is that INT8 stays within 1.5x of FP32's time.
	// Where no SIMD integer kernels exist (non-amd64, purego) the
	// portable bodies are correct but scalar (0.9-1.1 under the generic
	// clamp), so only sanity is asserted there.
	_, vnni := tensor.PickGemmU8()
	switch {
	case vnni:
		r.check("quantized engine faster than FP32 at batch 1 and 8 (VNNI host)", speedup[1] > 1 && speedup[8] > 1)
	case tensor.FastInt8:
		r.check("quantized engine within 1.5x of FP32's time at batch 8", speedup[8] >= 0.67)
	default:
		r.linef("no SIMD integer kernels on this GOARCH: time check relaxed to sanity")
		r.check("quantized engine not pathologically slower at batch 8", speedup[8] >= 0.4)
	}
	r.check("top-1 agreement with FP32 reference", agreement == 1)
	r.check("~4x activation-memory reduction (>= 3.5x)", memRatio >= 3.5)
	r.check("INT8-only device executes on the quantized engine", p.Quantized())
	return r, nil
}
