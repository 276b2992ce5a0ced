package safety

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// RobustnessService is the output-error detector of §IV-B: it "holds a
// copy of the DL model and can verify the correctness of the output
// data" that devices periodically submit. Divergence indicates
// systematic faults injected at run time (hardware faults, attacks) on
// the monitored device. It is safe for concurrent use.
type RobustnessService struct {
	reference *inference.Engine
	// Tolerance is the maximum acceptable max-abs divergence between
	// submitted and reference outputs.
	Tolerance float64

	checks, anomalies atomic.Int64
}

// NewRobustnessService wraps a trusted reference copy of the model.
func NewRobustnessService(reference *nn.Graph, tolerance float64) (*RobustnessService, error) {
	r, err := inference.Compile(reference)
	if err != nil {
		return nil, err
	}
	return &RobustnessService{reference: r, Tolerance: tolerance}, nil
}

// Verdict is the outcome of one submission.
type Verdict struct {
	OK         bool
	Divergence float64
}

// Check recomputes the inference on the reference model and compares.
func (s *RobustnessService) Check(input, claimed *tensor.Tensor) (Verdict, error) {
	s.checks.Add(1)
	want, err := s.reference.RunSingle(input)
	if err != nil {
		return Verdict{}, err
	}
	d, err := tensor.MaxAbsDiff(want, claimed)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{OK: d <= s.Tolerance, Divergence: d}
	if !v.OK {
		s.anomalies.Add(1)
	}
	return v, nil
}

// Stats returns (checks, anomalies).
func (s *RobustnessService) Stats() (int64, int64) { return s.checks.Load(), s.anomalies.Load() }

// InjectWeightFaults flips `flips` random bits in the model's weight
// tensors, simulating the run-time hardware faults / attacks of §IV-B.
// It returns the number of flips applied.
func InjectWeightFaults(g *nn.Graph, flips int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	// Collect weight tensors in deterministic (node, key) order so a
	// given seed always produces the same fault pattern.
	var weights []*tensor.Tensor
	for _, n := range g.Nodes {
		for _, key := range n.WeightKeys() {
			w := n.Weights[key]
			if w.DType == tensor.FP32 && w.NumElements() > 0 {
				weights = append(weights, w)
			}
		}
	}
	if len(weights) == 0 {
		return 0
	}
	applied := 0
	for i := 0; i < flips; i++ {
		w := weights[rng.Intn(len(weights))]
		idx := rng.Intn(len(w.F32))
		// Flip upper-mantissa/exponent bits: the SEU class that actually
		// corrupts inference (low-mantissa flips vanish in rounding).
		bit := uint(20 + rng.Intn(11))
		bits := math.Float32bits(w.F32[idx])
		bits ^= 1 << bit
		v := math.Float32frombits(bits)
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			v = 0 // hardware parity machinery would squash these; keep finite
		}
		w.F32[idx] = v
		applied++
	}
	return applied
}

// Hybrid is the architectural-hybridization pattern [16]: a small,
// verified safety kernel supervises an unreliable payload. The payload
// result for an input is used only while the kernel's checks pass;
// otherwise the system falls back to the kernel's safe action. One
// Hybrid may supervise concurrent invocations when its functions allow.
type Hybrid[I, T any] struct {
	// Payload computes the full-function result (the DL pipeline).
	Payload func(I) (T, error)
	// Check validates a payload result (e.g. the robustness service).
	Check func(T) bool
	// SafeAction is the fallback (e.g. brake, de-energize, reject).
	SafeAction func() T

	payloadUses, fallbacks atomic.Int64
}

// Invoke runs the payload on in under supervision.
func (h *Hybrid[I, T]) Invoke(in I) T {
	out, err := h.Payload(in)
	if err == nil && h.Check(out) {
		h.payloadUses.Add(1)
		return out
	}
	h.fallbacks.Add(1)
	return h.SafeAction()
}

// Stats returns (payload uses, fallbacks).
func (h *Hybrid[I, T]) Stats() (int64, int64) { return h.payloadUses.Load(), h.fallbacks.Load() }

// String summarizes a detection report for logs.
func (r DetectionReport) String() string {
	return fmt.Sprintf("recall=%v falseAlarmRate=%.4f", r.Recall, r.FalseAlarmRate)
}
