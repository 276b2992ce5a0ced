// Package train provides a minimal SGD trainer for fully connected
// graphs (Dense / ReLU / Softmax).
//
// The paper's toolchain assumes models arrive pre-trained (step 2 of the
// deployment flow, §III, is "model training, usually transfer
// learning"). The compression study nevertheless needs *trained* weights
// — pruning random weights says nothing about accuracy loss — so this
// package trains the LeNet-300-100-class MLPs used by the Deep
// Compression reproduction and the Industrial-IoT classifiers on the
// synthetic datasets. Convolutional training is out of scope; CNN
// experiments use feature-engineered MLP heads instead.
package train

import (
	"fmt"
	"math"
	"math/rand"

	"vedliot/internal/dataset"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Config controls SGD.
type Config struct {
	Epochs    int
	LR        float32
	BatchSize int
	Seed      int64
	// FreezeZeros keeps exactly-zero weights at zero, implementing the
	// masked retraining step of Deep Compression's prune-retrain loop.
	FreezeZeros bool
}

// History records per-epoch training loss.
type History struct {
	Loss []float64
}

// layer is one trainable dense layer extracted from the graph.
type layer struct {
	node *nn.Node
	w    *tensor.Tensor
	b    *tensor.Tensor
	in   int
	out  int
	relu bool // followed by ReLU
}

// extractMLP validates that g is a trainable MLP and returns its layers
// in forward order.
func extractMLP(g *nn.Graph) ([]layer, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	var layers []layer
	for i, n := range order {
		switch n.Op {
		case nn.OpInput, nn.OpSoftmax, nn.OpFlatten:
			continue
		case nn.OpDense:
			w := n.Weight(nn.WeightKey)
			b := n.Weight(nn.BiasKey)
			if w == nil || b == nil {
				return nil, fmt.Errorf("train: dense %q lacks weights", n.Name)
			}
			relu := false
			if i+1 < len(order) && order[i+1].Op == nn.OpReLU {
				relu = true
			}
			layers = append(layers, layer{
				node: n, w: w, b: b,
				in: w.Shape[1], out: w.Shape[0], relu: relu,
			})
		case nn.OpReLU:
			continue
		default:
			return nil, fmt.Errorf("train: op %s not trainable (MLPs only)", n.Op)
		}
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("train: no dense layers found")
	}
	return layers, nil
}

// SGD trains g in place with softmax cross-entropy loss.
func SGD(g *nn.Graph, samples []dataset.Sample, cfg Config) (History, error) {
	layers, err := extractMLP(g)
	if err != nil {
		return History{}, err
	}
	if len(samples) == 0 {
		return History{}, fmt.Errorf("train: no samples")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Zero masks for FreezeZeros mode, captured before training.
	var masks [][]bool
	if cfg.FreezeZeros {
		masks = make([][]bool, len(layers))
		for li, l := range layers {
			m := make([]bool, len(l.w.F32))
			for i, v := range l.w.F32 {
				m[i] = v == 0
			}
			masks[li] = m
		}
	}

	hist := History{}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	// Forward caches.
	acts := make([][]float32, len(layers)+1)
	pre := make([][]float32, len(layers))
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for bi := 0; bi < len(idx); bi += cfg.BatchSize {
			end := bi + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[bi:end]
			// Gradient accumulators.
			gw := make([][]float32, len(layers))
			gb := make([][]float32, len(layers))
			for li, l := range layers {
				gw[li] = make([]float32, len(l.w.F32))
				gb[li] = make([]float32, len(l.b.F32))
			}
			for _, si := range batch {
				s := samples[si]
				if len(s.X) != layers[0].in {
					return hist, fmt.Errorf("train: sample dim %d != input %d", len(s.X), layers[0].in)
				}
				// Forward.
				acts[0] = s.X
				for li, l := range layers {
					z := make([]float32, l.out)
					for o := 0; o < l.out; o++ {
						acc := l.b.F32[o]
						row := l.w.F32[o*l.in : (o+1)*l.in]
						for i, x := range acts[li] {
							acc += x * row[i]
						}
						z[o] = acc
					}
					pre[li] = z
					a := z
					if l.relu {
						a = make([]float32, l.out)
						for i, v := range z {
							if v > 0 {
								a[i] = v
							}
						}
					}
					acts[li+1] = a
				}
				// Softmax + cross-entropy on final layer.
				logits := acts[len(layers)]
				probs := softmax(logits)
				if s.Label < 0 || s.Label >= len(probs) {
					return hist, fmt.Errorf("train: label %d out of range", s.Label)
				}
				p := float64(probs[s.Label])
				if p < 1e-12 {
					p = 1e-12
				}
				epochLoss += -math.Log(p)

				// Backward.
				delta := make([]float32, len(probs))
				copy(delta, probs)
				delta[s.Label]--
				for li := len(layers) - 1; li >= 0; li-- {
					l := layers[li]
					aPrev := acts[li]
					for o := 0; o < l.out; o++ {
						d := delta[o]
						if d == 0 {
							continue
						}
						gb[li][o] += d
						row := gw[li][o*l.in : (o+1)*l.in]
						for i, x := range aPrev {
							row[i] += d * x
						}
					}
					if li > 0 {
						prev := make([]float32, l.in)
						for o := 0; o < l.out; o++ {
							d := delta[o]
							if d == 0 {
								continue
							}
							row := l.w.F32[o*l.in : (o+1)*l.in]
							for i := range prev {
								prev[i] += d * row[i]
							}
						}
						// ReLU derivative of the previous layer.
						if layers[li-1].relu {
							for i := range prev {
								if pre[li-1][i] <= 0 {
									prev[i] = 0
								}
							}
						}
						delta = prev
					}
				}
			}
			// Apply averaged gradients.
			scale := cfg.LR / float32(len(batch))
			for li, l := range layers {
				for i := range l.w.F32 {
					if cfg.FreezeZeros && masks[li][i] {
						continue
					}
					l.w.F32[i] -= scale * gw[li][i]
				}
				for i := range l.b.F32 {
					l.b.F32[i] -= scale * gb[li][i]
				}
			}
		}
		hist.Loss = append(hist.Loss, epochLoss/float64(len(samples)))
	}
	return hist, nil
}

func softmax(logits []float32) []float32 {
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	out := make([]float32, len(logits))
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - maxV))
		out[i] = float32(e)
		sum += e
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
	return out
}

// Accuracy evaluates top-1 accuracy of any single-input/single-output
// classifier graph on the samples, using the reference runtime. Sample
// vectors are reshaped to the graph's input shape.
func Accuracy(g *nn.Graph, samples []dataset.Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("train: no samples")
	}
	r, err := inference.Compile(g)
	if err != nil {
		return 0, err
	}
	inShape := append(tensor.Shape{1}, g.Node(g.Inputs[0]).Attrs.Shape...)
	correct := 0
	for _, s := range samples {
		in := tensor.New(tensor.FP32, inShape...)
		if len(s.X) != in.NumElements() {
			return 0, fmt.Errorf("train: sample dim %d != input size %d", len(s.X), in.NumElements())
		}
		copy(in.F32, s.X)
		out, err := r.RunSingle(in)
		if err != nil {
			return 0, err
		}
		if tensor.ArgMax(out) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}
