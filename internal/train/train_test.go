package train

import (
	"testing"

	"vedliot/internal/dataset"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
)

func TestSGDLearnsBlobs(t *testing.T) {
	samples := dataset.Blobs(600, 16, 4, 0.25, 11)
	trainSet, testSet := dataset.Split(samples, 0.25)
	g := nn.MLP("clf", []int{16, 32, 4}, nn.BuildOptions{Weights: true, Seed: 1})

	before, err := Accuracy(g, testSet)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := SGD(g, trainSet, Config{Epochs: 15, LR: 0.1, BatchSize: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Accuracy(g, testSet)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.9 {
		t.Errorf("test accuracy %.2f < 0.9 (before training: %.2f)", after, before)
	}
	if len(hist.Loss) != 15 {
		t.Errorf("history has %d epochs", len(hist.Loss))
	}
	if hist.Loss[len(hist.Loss)-1] >= hist.Loss[0] {
		t.Errorf("loss did not decrease: %v -> %v", hist.Loss[0], hist.Loss[len(hist.Loss)-1])
	}
}

func TestSGDRejectsNonMLP(t *testing.T) {
	g := nn.LeNet(28, 10, nn.BuildOptions{Weights: true})
	if _, err := SGD(g, dataset.Blobs(10, 784, 10, 0.1, 1), Config{Epochs: 1, LR: 0.05, BatchSize: 16, Seed: 1}); err == nil {
		t.Error("SGD accepted a CNN")
	}
}

func TestSGDInputValidation(t *testing.T) {
	g := nn.MLP("clf", []int{8, 4, 2}, nn.BuildOptions{Weights: true})
	if _, err := SGD(g, nil, Config{Epochs: 1, LR: 0.05, BatchSize: 16, Seed: 1}); err == nil {
		t.Error("SGD accepted empty dataset")
	}
	bad := []dataset.Sample{{X: []float32{1, 2}, Label: 0}} // wrong dim
	if _, err := SGD(g, bad, Config{Epochs: 1, LR: 0.05, BatchSize: 16, Seed: 1}); err == nil {
		t.Error("SGD accepted wrong feature dim")
	}
	badLabel := []dataset.Sample{{X: make([]float32, 8), Label: 9}}
	if _, err := SGD(g, badLabel, Config{Epochs: 1, LR: 0.05, BatchSize: 16, Seed: 1}); err == nil {
		t.Error("SGD accepted out-of-range label")
	}
}

func TestFreezeZerosKeepsSparsity(t *testing.T) {
	samples := dataset.Blobs(300, 12, 3, 0.3, 5)
	g := nn.MLP("clf", []int{12, 24, 3}, nn.BuildOptions{Weights: true, Seed: 3})
	if _, err := SGD(g, samples, Config{Epochs: 5, LR: 0.1, BatchSize: 16, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	rep, err := optimize.MagnitudePrune(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	zeroedBefore := rep.Zeroed

	// Retrain with frozen zeros.
	if _, err := SGD(g, samples, Config{Epochs: 5, LR: 0.05, BatchSize: 16, Seed: 5, FreezeZeros: true}); err != nil {
		t.Fatal(err)
	}
	var zeroedAfter int64
	for _, n := range g.Nodes {
		w := n.Weight(nn.WeightKey)
		if w == nil {
			continue
		}
		for _, v := range w.F32 {
			if v == 0 {
				zeroedAfter++
			}
		}
	}
	if zeroedAfter < zeroedBefore {
		t.Errorf("retraining destroyed sparsity: %d -> %d zeros", zeroedBefore, zeroedAfter)
	}
}

func TestPruneRetrainRecoversAccuracy(t *testing.T) {
	// The Deep Compression claim in miniature: prune hard, accuracy
	// drops; retrain with frozen zeros, accuracy recovers.
	samples := dataset.Blobs(800, 20, 4, 0.3, 9)
	trainSet, testSet := dataset.Split(samples, 0.25)
	g := nn.MLP("clf", []int{20, 48, 4}, nn.BuildOptions{Weights: true, Seed: 7})
	if _, err := SGD(g, trainSet, Config{Epochs: 20, LR: 0.1, BatchSize: 16, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	accTrained, _ := Accuracy(g, testSet)
	if err := g.InferShapes(1); err != nil {
		t.Fatal(err)
	}
	if _, err := optimize.MagnitudePrune(g, 0.9); err != nil {
		t.Fatal(err)
	}
	accPruned, _ := Accuracy(g, testSet)
	if _, err := SGD(g, trainSet, Config{Epochs: 10, LR: 0.05, BatchSize: 16, Seed: 9, FreezeZeros: true}); err != nil {
		t.Fatal(err)
	}
	accRetrained, _ := Accuracy(g, testSet)

	if accTrained < 0.85 {
		t.Fatalf("base accuracy %.2f too low for the experiment", accTrained)
	}
	if accRetrained < accPruned-0.01 {
		t.Errorf("retraining did not help: pruned %.2f, retrained %.2f", accPruned, accRetrained)
	}
	if accRetrained < accTrained-0.1 {
		t.Errorf("retrained accuracy %.2f lost more than 10pp vs %.2f", accRetrained, accTrained)
	}
}

func TestAccuracyValidation(t *testing.T) {
	g := nn.MLP("clf", []int{4, 2}, nn.BuildOptions{Weights: true})
	if _, err := Accuracy(g, nil); err == nil {
		t.Error("Accuracy accepted empty set")
	}
	bad := []dataset.Sample{{X: []float32{1}, Label: 0}}
	if _, err := Accuracy(g, bad); err == nil {
		t.Error("Accuracy accepted wrong dim")
	}
}
