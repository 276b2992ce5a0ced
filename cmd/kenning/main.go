// Command kenning is the model-toolchain CLI: it builds a zoo model,
// runs the optimization pipeline, reports statistics, round-trips the
// model through the .vedz artifact format, and evaluates it on a
// simulated accelerator — the §III deployment flow end to end. It packs
// nothing: vedliot-pack pack runs the same pipeline and writes the
// artifact (kenning -model M -int8-runtime is vedliot-pack pack -model M
// -quantize -int8).
//
// Usage:
//
//	kenning -model lenet -quantize -prune 0.8 -target "Xavier NX"
//	kenning -model yolov4 -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vedliot/internal/accel"
	"vedliot/internal/artifact"
	"vedliot/internal/inference"
	"vedliot/internal/inference/ir"
	"vedliot/internal/kenning"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
	"vedliot/internal/zoo"
)

func main() {
	model := flag.String("model", "lenet", "model: a weighted zoo model (lenet, mlp, motor, arc, mobilenetedge, ...; vedliot-serve -list-models lists them) or a weightless paper-scale graph (mobilenetv3, resnet50, yolov4, yolov4tiny)")
	quantize := flag.Bool("quantize", false, "post-training INT8 quantization")
	int8Runtime := flag.Bool("int8-runtime", false, "calibrate activations and compare the native INT8 engine against the FP32 engine (implies -quantize)")
	calib := flag.Int("calib", 4, "calibration batches for -int8-runtime")
	prune := flag.Float64("prune", 0, "magnitude-pruning sparsity (0..1)")
	target := flag.String("target", "", "accelerator to evaluate on (see internal/accel)")
	stats := flag.Bool("stats", false, "print the per-layer statistics table")
	dumpIR := flag.Bool("dump-ir", false, "print the deterministic pass-by-pass lowering IR (INT8 pipeline with -int8-runtime)")
	flag.Parse()

	g, weights, err := buildModel(*model)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %s: %d nodes\n", g.Name, len(g.Nodes))

	// Toolchain pipeline.
	cfg := kenning.PipelineConfig{Prune: *prune}
	if *quantize || *int8Runtime {
		if !weights {
			fatal(fmt.Errorf("-quantize needs a weighted zoo model"))
		}
		cfg.Quantize = true
		cfg.Granularity = optimize.PerChannel
	}
	if *int8Runtime {
		cfg.CalibrationSamples = calibrationSamples(g, *calib)
	}
	if *prune > 0 && !weights {
		fatal(fmt.Errorf("-prune needs a weighted model"))
	}
	rep, err := kenning.RunPipeline(g, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("passes applied: %v\n", rep.AppliedPasses)
	if rep.PruneReport != nil {
		fmt.Printf("pruned to %.1f%% sparsity (theoretical speed-up %.2fx)\n",
			rep.PruneReport.Sparsity()*100, rep.PruneReport.TheoreticalSpeedup())
	}
	if rep.QuantReport != nil {
		fmt.Printf("quantized (%s): weights %d -> %d bytes\n",
			rep.QuantReport.Granularity, rep.QuantReport.BytesBefore, rep.QuantReport.BytesAfter)
	}
	if *int8Runtime {
		if rep.Schema == nil {
			fatal(fmt.Errorf("calibration produced no schema"))
		}
		if err := compareRuntimes(g, rep.Schema); err != nil {
			fatal(err)
		}
	}
	if *dumpIR {
		if err := dumpLowering(g, rep.Schema); err != nil {
			fatal(err)
		}
	}

	gs, err := g.Stats(1)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Print(gs.Summary(40))
	} else {
		fmt.Printf("%.3f GMACs, %.2fM params, %.2f MiB weights\n",
			gs.GMACs(), float64(gs.Params)/1e6, float64(g.WeightBytes())/(1<<20))
	}

	// Interchange round trip: Verify checks the CRCs, graph validity and
	// that the bytes re-encode to themselves.
	if weights {
		data, err := (&artifact.Model{Graph: g}).Encode()
		if err != nil {
			fatal(err)
		}
		if _, err := artifact.Verify(data); err != nil {
			fatal(err)
		}
		fmt.Printf(".vedz round trip: %d bytes ok\n", len(data))
	}

	// Accelerator evaluation.
	if *target != "" {
		dev, err := accel.FindDevice(*target)
		if err != nil {
			fatal(err)
		}
		prec := dev.BestPrecision()
		w, err := accel.WorkloadFromGraph(g, prec)
		if err != nil {
			fatal(err)
		}
		for _, batch := range []int{1, 8} {
			m, err := dev.Evaluate(w, prec, batch)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s %s B%d: %.1f ms, %.0f GOPS, %.1f W (%s-bound), %.2f mJ/inference\n",
				dev.Name, prec, batch, m.LatencyMS, m.GOPS, m.PowerW, m.Bound, m.EnergyPerInferenceMJ())
		}
	}
}

// dumpLowering prints the shared compilation pipeline's deterministic
// pass-by-pass textual IR — the same trace the golden tests pin. With a
// calibration schema the INT8 pipeline (precision assignment, islands)
// is shown; without one, the FP32 pipeline.
func dumpLowering(g *nn.Graph, schema *nn.QuantSchema) error {
	_, records, err := ir.Lower(g, schema, true)
	if err != nil {
		return err
	}
	fmt.Print(ir.FormatRecords(records, true))
	return nil
}

// calibrationSamples builds deterministic pseudo-random batches shaped
// like the model input.
func calibrationSamples(g *nn.Graph, n int) []map[string]*tensor.Tensor {
	samples, err := nn.SyntheticCalibration(g, n)
	if err != nil {
		fatal(err)
	}
	return samples
}

// compareRuntimes deploys the calibrated model on both host engines and
// prints the single-core latency comparison — the CLI view of the
// `quantized` bench experiment.
func compareRuntimes(g *nn.Graph, schema *nn.QuantSchema) error {
	fp, err := inference.Compile(g)
	if err != nil {
		return err
	}
	q, err := inference.CompileQuantized(g, schema)
	if err != nil {
		return err
	}
	in, err := nn.SyntheticInput(g, 2, 1)
	if err != nil {
		return err
	}
	// Warm, then best-of-3 interleaved.
	if _, err := fp.Run(in); err != nil {
		return err
	}
	if _, err := q.Run(in); err != nil {
		return err
	}
	var bestF, bestQ time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := fp.Run(in); err != nil {
			return err
		}
		if d := time.Since(start); bestF == 0 || d < bestF {
			bestF = d
		}
		start = time.Now()
		if _, err := q.Run(in); err != nil {
			return err
		}
		if d := time.Since(start); bestQ == 0 || d < bestQ {
			bestQ = d
		}
	}
	fmt.Printf("int8 runtime: %d calibrated values, fp32 %v -> int8 %v (%.2fx), arena %d B -> %d B/sample\n",
		len(schema.Activations), bestF, bestQ, float64(bestF)/float64(bestQ),
		fp.ArenaFloatsPerSample()*4, q.ArenaBytesPerSample())
	return nil
}

// buildModel resolves a weighted model through the zoo; only the
// weightless paper-scale graphs are built here.
func buildModel(name string) (*nn.Graph, bool, error) {
	switch name {
	case "mobilenetv3":
		return nn.MobileNetV3(224, nn.BuildOptions{}), false, nil
	case "resnet50":
		return nn.ResNet50(224, nn.BuildOptions{}), false, nil
	case "yolov4":
		return nn.YoloV4(608, 80, nn.BuildOptions{}), false, nil
	case "yolov4tiny":
		return nn.YoloV4Tiny(416, 80, nn.BuildOptions{}), false, nil
	}
	e, err := zoo.Find(name)
	if err != nil {
		return nil, false, fmt.Errorf("%w; weightless: mobilenetv3, resnet50, yolov4, yolov4tiny", err)
	}
	return e.Build(), true, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kenning:", err)
	os.Exit(1)
}
