package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"vedliot/internal/tensor"
)

// HTTPTensor is the JSON wire form of one FP32 tensor.
type HTTPTensor struct {
	// Shape is the tensor's dimensions, leading dimension = batch.
	Shape []int `json:"shape"`
	// Data is the row-major FP32 payload.
	Data []float32 `json:"data"`
}

// HTTPInferRequest is the POST /v1/infer body.
type HTTPInferRequest struct {
	// Model names the deployment; empty resolves a single-model fleet.
	Model string `json:"model"`
	// Inputs maps input-node names to tensors.
	Inputs map[string]HTTPTensor `json:"inputs"`
}

// HTTPInferResponse is the POST /v1/infer success body.
type HTTPInferResponse struct {
	// Outputs maps output-node names to tensors.
	Outputs map[string]HTTPTensor `json:"outputs"`
}

// Handler returns the server's HTTP/JSON adapter: POST /v1/infer
// (X-API-Key header), GET /v1/models, GET /v1/stats. It shares the
// framed listener's tenants, batchers and admission mapping —
// ErrOverloaded becomes 429 with a Retry-After header — and exists for
// debuggability; the framed protocol is the performance path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	tenant, ok := s.tenantFor(r.Header.Get("X-API-Key"))
	if !ok {
		s.unauthorized.Add(1)
		http.Error(w, "unknown api key", http.StatusUnauthorized)
		return
	}
	// The framed path's bound: a body past MaxFrame is refused, not read.
	model, ins, err := decodeInfer(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxFrame)))
	if err != nil {
		s.badRequest.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.requests.Add(1)
	b, err := s.batcherFor(tenant, model)
	if err != nil {
		s.badRequest.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	done := make(chan clientReply, 1)
	b.add(r.Context(), ins, func(outs map[string]*tensor.Tensor, err error) {
		done <- clientReply{outs: outs, err: err}
	})
	rep := <-done
	switch s.classify(rep.err) {
	case StatusOK:
		resp := HTTPInferResponse{Outputs: make(map[string]HTTPTensor, len(rep.outs))}
		for name, t := range rep.outs {
			resp.Outputs[name] = HTTPTensor{Shape: t.Shape, Data: t.F32}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	case StatusOverloaded:
		w.Header().Set("Retry-After", strconv.Itoa(int((RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	case StatusShuttingDown:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	case StatusBadRequest:
		http.Error(w, rep.err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, rep.err.Error(), http.StatusInternalServerError)
	}
}

// decodeInfer is the adapter's body-to-tensor-map step: one JSON
// request and nothing after it, each input wrapped as a tensor whose
// shape describes exactly its data (tensor.FromSlice). Whether the
// inputs suit the model is the batcher's question (CheckInputs).
func decodeInfer(body io.Reader) (model string, ins map[string]*tensor.Tensor, err error) {
	var req HTTPInferRequest
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		return "", nil, fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request")
		}
		return "", nil, fmt.Errorf("bad request body: %w", err)
	}
	ins = make(map[string]*tensor.Tensor, len(req.Inputs))
	for name, ht := range req.Inputs {
		t, err := tensor.FromSlice(ht.Data, ht.Shape...)
		if err != nil {
			return "", nil, fmt.Errorf("input %q: %w", name, err)
		}
		ins[name] = t
	}
	return req.Model, ins, nil
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Models []string `json:"models"`
	}{Models: s.sched.Models()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
