// Motor condition classification (paper §V-B): train the classifier on
// synthetic vibration signatures, compress it with the toolchain, and
// size the battery of the ultra-low-energy monitoring box.
package main

import (
	"fmt"
	"log"

	"vedliot/internal/accel"
	"vedliot/internal/dataset"
	"vedliot/internal/inference"
	"vedliot/internal/kenning"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
	"vedliot/internal/train"
)

func main() {
	cfg := dataset.DefaultMotorConfig()
	samples := dataset.MotorVibration(900, cfg)
	dataset.Normalize(samples)
	trainSet, testSet := dataset.Split(samples, 0.25)

	g := nn.MLP("motor-clf", []int{cfg.Window, 64, int(dataset.NumMotorStates)},
		nn.BuildOptions{Weights: true, Seed: 3})
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: 20, LR: 0.05, BatchSize: 16, Seed: 4}); err != nil {
		log.Fatal(err)
	}
	ev, err := kenning.Evaluate(g, inference.CPUBackend{}, testSet, int(dataset.NumMotorStates))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accuracy %.3f on %d test windows\n", ev.Confusion.Accuracy(), len(testSet))
	fmt.Println(ev.Confusion)

	// Compress for the battery box: prune + retrain + quantize.
	before := g.WeightBytes()
	if _, err := optimize.MagnitudePrune(g, 0.8); err != nil {
		log.Fatal(err)
	}
	if _, err := train.SGD(g, trainSet, train.Config{Epochs: 8, LR: 0.02, BatchSize: 16, Seed: 5, FreezeZeros: true}); err != nil {
		log.Fatal(err)
	}
	qr, err := optimize.QuantizeWeights(g, optimize.QuantConfig{Granularity: optimize.PerChannel})
	if err != nil {
		log.Fatal(err)
	}
	acc2, err := train.Accuracy(g, testSet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed: %d -> %d weight bytes (sparse-ready), accuracy %.3f\n",
		before, qr.BytesAfter, acc2)

	// Battery life on the MCU NPU at one inference per second.
	npu, _ := accel.FindDevice("MAX78000 NPU")
	w, err := accel.WorkloadFromGraph(g, tensor.INT8)
	if err != nil {
		log.Fatal(err)
	}
	m, err := npu.Evaluate(w, tensor.INT8, 1)
	if err != nil {
		log.Fatal(err)
	}
	const batteryMJ = 32.4e6 // 2x AA lithium
	perSecondMJ := m.EnergyPerInferenceMJ() + npu.IdleW*1000
	days := batteryMJ / perSecondMJ / 86400
	fmt.Printf("on %s: %.2f ms, %.3f mJ per inference -> %.0f days on 2xAA at 1 Hz\n",
		npu.Name, m.LatencyMS, m.EnergyPerInferenceMJ(), days)

	// Event reporting: which faults would page an operator?
	for st := dataset.MotorState(1); st < dataset.NumMotorStates; st++ {
		recall := ev.Confusion.Recall(int(st))
		fmt.Printf("  %-14s recall %.2f -> operator notified on detection\n", st, recall)
	}
}
