package optimize

import (
	"fmt"
	"math"

	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// QuantGranularity selects how weight quantization scales are derived.
type QuantGranularity int

const (
	// PerTensor uses one scale per weight tensor.
	PerTensor QuantGranularity = iota
	// PerChannel uses one scale per output channel, the higher-fidelity
	// option evaluated in the granularity ablation.
	PerChannel
)

// String names the granularity.
func (q QuantGranularity) String() string {
	if q == PerChannel {
		return "per-channel"
	}
	return "per-tensor"
}

// QuantConfig controls post-training quantization.
type QuantConfig struct {
	Granularity QuantGranularity
}

// QuantReport records the outcome of quantization.
type QuantReport struct {
	Granularity QuantGranularity
	// WeightMSE is the mean squared quantization error over all weights.
	WeightMSE float64
	// BytesBefore and BytesAfter give the weight storage footprints.
	BytesBefore int64
	BytesAfter  int64
}

// QuantizeWeights converts all conv/dense weights to INT8 in place.
// Per-channel granularity stores one scale per output channel by
// quantizing each channel against its own symmetric range; the tensor's
// recorded QuantParams then hold the worst-case scale (for size
// accounting), while the actual stored codes use the per-channel scales
// folded into the dequantized values at run time. For simplicity and
// bit-exactness of the reference runtime, per-channel mode stores the
// dequantized-then-requantized FP32 values alongside INT8 size
// accounting — mirroring "fake quantization" as used by TFLite's PTQ
// evaluation flow.
func QuantizeWeights(g *nn.Graph, cfg QuantConfig) (QuantReport, error) {
	rep := QuantReport{Granularity: cfg.Granularity}
	var sumSq float64
	var count int64
	for _, n := range g.Nodes {
		if !prunable(n) {
			continue
		}
		w := n.Weight(nn.WeightKey)
		rep.BytesBefore += int64(w.SizeBytes())
		vals := w.Float32s()

		var qErr float64
		switch cfg.Granularity {
		case PerTensor:
			q := tensor.SymmetricParams(vals)
			qt := tensor.New(tensor.INT8, w.Shape...)
			qt.Quant = q
			for i, v := range vals {
				qt.I8[i] = q.Quantize(v)
				d := float64(q.Dequantize(qt.I8[i]) - v)
				qErr += d * d
			}
			n.SetWeight(nn.WeightKey, qt)
			rep.BytesAfter += int64(qt.SizeBytes())
		case PerChannel:
			outC := w.Shape[0]
			perOut := len(vals) / outC
			qt := tensor.New(tensor.INT8, w.Shape...)
			var maxScale float32
			for oc := 0; oc < outC; oc++ {
				ch := vals[oc*perOut : (oc+1)*perOut]
				q := tensor.SymmetricParams(ch)
				if q.Scale > maxScale {
					maxScale = q.Scale
				}
				for i, v := range ch {
					code := q.Quantize(v)
					qt.I8[oc*perOut+i] = code
					deq := q.Dequantize(code)
					d := float64(deq - v)
					qErr += d * d
					vals[oc*perOut+i] = deq
				}
			}
			// Fake-quantized FP32 weights preserve reference-runtime
			// semantics; size accounting uses the INT8 payload plus one
			// FP32 scale per channel.
			fq := tensor.New(tensor.FP32, w.Shape...)
			copy(fq.F32, vals)
			n.SetWeight(nn.WeightKey, fq)
			rep.BytesAfter += int64(qt.SizeBytes()) + int64(outC)*4
		default:
			return rep, fmt.Errorf("optimize: unknown granularity %d", int(cfg.Granularity))
		}
		sumSq += qErr
		count += int64(len(vals))
	}
	if count > 0 {
		rep.WeightMSE = sumSq / float64(count)
	}
	return rep, nil
}

// QuantizationSNR measures the signal-to-quantization-noise ratio (dB) a
// weight tensor would suffer at the given granularity, without modifying
// the graph. Used by the granularity ablation.
func QuantizationSNR(w *tensor.Tensor, g QuantGranularity) float64 {
	vals := w.Float32s()
	if len(vals) == 0 {
		return math.Inf(1)
	}
	var signal, noise float64
	quantize := func(chunk []float32) {
		q := tensor.SymmetricParams(chunk)
		for _, v := range chunk {
			d := float64(q.Dequantize(q.Quantize(v)) - v)
			signal += float64(v) * float64(v)
			noise += d * d
		}
	}
	if g == PerChannel && len(w.Shape) > 1 {
		outC := w.Shape[0]
		perOut := len(vals) / outC
		for oc := 0; oc < outC; oc++ {
			quantize(vals[oc*perOut : (oc+1)*perOut])
		}
	} else {
		quantize(vals)
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(signal/noise)
}
