package optimize

import (
	"fmt"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Calibrate derives the activation quantization schema for g: the graph
// is compiled once on the FP32 engine, every calibration sample runs
// through RunAll, and the observed per-tensor (min, max) of each value
// — inputs included — becomes an affine INT8 mapping. The result is
// what inference.CompileQuantized consumes to keep activations integer
// end to end.
//
// Calibration is deterministic: the same graph and samples produce the
// same schema, and the schema's JSON encoding is byte-stable.
func Calibrate(g *nn.Graph, samples []map[string]*tensor.Tensor) (*nn.QuantSchema, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("optimize: calibration needs at least one sample")
	}
	ranges, err := activationRanges(g, samples)
	if err != nil {
		return nil, err
	}
	return SchemaFromRanges(g.Name, ranges), nil
}

// activationRanges is the one calibration loop: it compiles g once on
// the FP32 engine, runs every sample through RunAll and widens the
// accumulated (min, max) of each value with what the sample produced.
func activationRanges(g *nn.Graph, samples []map[string]*tensor.Tensor) (map[string][2]float32, error) {
	eng, err := inference.Compile(g)
	if err != nil {
		return nil, fmt.Errorf("optimize: calibrate %q: %w", g.Name, err)
	}
	ranges := make(map[string][2]float32)
	for _, sample := range samples {
		acts, err := eng.RunAll(sample)
		if err != nil {
			return nil, fmt.Errorf("optimize: calibration: %w", err)
		}
		for name, t := range acts {
			lo, hi := t.MinMax()
			r, ok := ranges[name]
			if !ok {
				ranges[name] = [2]float32{lo, hi}
				continue
			}
			if lo < r[0] {
				r[0] = lo
			}
			if hi > r[1] {
				r[1] = hi
			}
			ranges[name] = r
		}
	}
	return ranges, nil
}

// SchemaFromRanges converts calibrated per-value (min, max) ranges into
// a quantization schema of affine INT8 mappings. Ranges are widened to
// include zero (tensor.AffineParams), so padding and ReLU cut-offs are
// exactly representable; zero-width ranges degrade to the scale-1
// identity mapping rather than a degenerate scale.
func SchemaFromRanges(model string, ranges map[string][2]float32) *nn.QuantSchema {
	s := nn.NewQuantSchema(model)
	for name, r := range ranges {
		s.Set(name, tensor.AffineParams(r[0], r[1]))
	}
	return s
}
