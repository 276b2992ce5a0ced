package nn

import (
	"encoding/json"
	"fmt"

	"vedliot/internal/tensor"
)

// QuantSchema is the calibration artifact of post-training quantization:
// one affine INT8 mapping per graph value (inputs and every node
// output), derived by running calibration batches through the FP32
// engine and recording per-tensor activation ranges. The quantized
// compiler (inference.CompileQuantized) consumes it to keep activations
// in INT8 end to end; the JSON form is what deployment pipelines persist
// next to the model.
//
// The schema lives in nn rather than optimize or inference because both
// sides depend on it: optimize produces it, inference consumes it, and
// the graph IR is the vocabulary they share.
type QuantSchema struct {
	// Model names the graph the schema was calibrated for.
	Model string `json:"model"`
	// Activations maps value name (input or node output) to its affine
	// INT8 mapping.
	Activations map[string]tensor.QuantParams `json:"activations"`
}

// NewQuantSchema creates an empty schema for the named model.
func NewQuantSchema(model string) *QuantSchema {
	return &QuantSchema{Model: model, Activations: make(map[string]tensor.QuantParams)}
}

// Params returns the quantization mapping for the named value.
func (s *QuantSchema) Params(name string) (tensor.QuantParams, bool) {
	if s == nil {
		return tensor.QuantParams{}, false
	}
	q, ok := s.Activations[name]
	return q, ok
}

// Set records the mapping for the named value.
func (s *QuantSchema) Set(name string, q tensor.QuantParams) {
	if s.Activations == nil {
		s.Activations = make(map[string]tensor.QuantParams)
	}
	s.Activations[name] = q
}

// Covers reports whether the schema has a usable (positive-scale)
// mapping for every value of g, returning the first gap otherwise. The
// quantized compiler checks coverage over the values that survive
// lowering (values eliminated by rewrites need no mapping); Covers
// remains the conservative whole-graph check for callers validating a
// calibration artifact on its own.
func (s *QuantSchema) Covers(g *Graph) error {
	if s == nil {
		return fmt.Errorf("nn: nil quant schema")
	}
	for _, n := range g.Nodes {
		q, ok := s.Activations[n.Name]
		if !ok {
			return fmt.Errorf("nn: quant schema %q has no range for value %q", s.Model, n.Name)
		}
		if !(q.Scale > 0) {
			return fmt.Errorf("nn: quant schema %q has non-positive scale for value %q", s.Model, n.Name)
		}
	}
	return nil
}

// Clone returns an independent copy of the schema.
func (s *QuantSchema) Clone() *QuantSchema {
	if s == nil {
		return nil
	}
	c := NewQuantSchema(s.Model)
	for name, q := range s.Activations {
		c.Activations[name] = q
	}
	return c
}

// Encode renders the schema as deterministic JSON (encoding/json sorts
// map keys), so identical calibrations produce identical bytes — the
// round-trip property the toolchain tests pin down.
func (s *QuantSchema) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// DecodeQuantSchema parses the JSON form produced by Encode.
func DecodeQuantSchema(data []byte) (*QuantSchema, error) {
	s := &QuantSchema{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("nn: decode quant schema: %w", err)
	}
	if s.Activations == nil {
		s.Activations = make(map[string]tensor.QuantParams)
	}
	return s, nil
}

// SyntheticInput builds a deterministic pseudo-random batch shaped like
// the graph's single declared input — the shared probe and calibration
// sample generator of the toolchain CLIs, the bench harness and the
// engine tests. The distribution is uniform-ish in [-0.5, 0.5), varied
// by seed.
func SyntheticInput(g *Graph, batch, seed int) (map[string]*tensor.Tensor, error) {
	if len(g.Inputs) != 1 {
		return nil, fmt.Errorf("nn: synthetic input wants 1 declared input, graph %q has %d", g.Name, len(g.Inputs))
	}
	shape := append(tensor.Shape{batch}, g.Node(g.Inputs[0]).Attrs.Shape...)
	if len(shape) == 1 || !shape.Valid() {
		return nil, fmt.Errorf("nn: synthetic input of graph %q: invalid shape %v", g.Name, shape)
	}
	in := tensor.New(tensor.FP32, shape...)
	for i := range in.F32 {
		in.F32[i] = float32((i*7+seed*13)%23)/23 - 0.5
	}
	return map[string]*tensor.Tensor{g.Inputs[0]: in}, nil
}

// SyntheticCalibration builds n two-sample calibration batches (seeds
// 1..n) for optimize.Calibrate and the PTQ pass.
func SyntheticCalibration(g *Graph, n int) ([]map[string]*tensor.Tensor, error) {
	samples := make([]map[string]*tensor.Tensor, 0, n)
	for seed := 1; seed <= n; seed++ {
		s, err := SyntheticInput(g, 2, seed)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}
