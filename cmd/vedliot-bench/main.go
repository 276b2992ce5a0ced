// Command vedliot-bench regenerates the paper's tables and figures from
// the reproduction's models and simulators.
//
// Usage:
//
//	vedliot-bench -list           # enumerate experiments
//	vedliot-bench -run fig4       # run one experiment
//	vedliot-bench -all            # run everything
//	vedliot-bench -run engine -json   # also write BENCH_engine.json
//
// With -json each executed experiment additionally writes a
// machine-readable perf artifact BENCH_<id>.json (checks + metrics)
// into -outdir, seeding the bench trajectory tracked across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vedliot/internal/bench"
	"vedliot/internal/inference"
	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor/cpu"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "", "run one experiment by id")
	all := flag.Bool("all", false, "run every experiment")
	jsonOut := flag.Bool("json", false, "write BENCH_<id>.json perf artifacts")
	outdir := flag.String("outdir", ".", "directory for -json artifacts")
	dumpIR := flag.Bool("dump-ir", false, "print the deterministic pass-by-pass lowering IR of the toolchain study models (FP32 and INT8) and exit")
	flag.Parse()

	switch {
	case *dumpIR:
		if err := dumpToolchainIR(); err != nil {
			fatal(err)
		}
	case *list:
		fmt.Printf("%-20s %s\n", "id", "paper artifact")
		for _, e := range bench.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Paper)
		}
	case *run != "":
		e, err := bench.Find(*run)
		if err != nil {
			fatal(err)
		}
		fmt.Println("host:", cpu.Summary())
		if err := execute(e, *jsonOut, *outdir); err != nil {
			fatal(err)
		}
	case *all:
		fmt.Println("host:", cpu.Summary())
		failures := 0
		for _, e := range bench.Registry() {
			if err := execute(e, *jsonOut, *outdir); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				failures++
			}
			fmt.Println()
		}
		if failures > 0 {
			fatal(fmt.Errorf("%d experiments failed", failures))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func execute(e bench.Experiment, jsonOut bool, outdir string) error {
	rep, err := e.Run()
	if err != nil {
		return err
	}
	fmt.Print(rep)
	if jsonOut {
		// The artifact is written even when checks fail: a failing run
		// is still a data point in the trajectory.
		if err := writeArtifact(outdir, e.ID, rep); err != nil {
			return err
		}
	}
	if failed := rep.Failed(); len(failed) > 0 {
		return fmt.Errorf("failed shape checks: %v", failed)
	}
	return nil
}

func writeArtifact(dir, id string, rep *bench.Report) error {
	data, err := json.MarshalIndent(rep.Artifact(id), "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+id+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// dumpToolchainIR prints the pass-by-pass lowering trace of the two
// toolchain study models: the engine study's face detector through the
// FP32 pipeline and the quantized study's MobileNet-style classifier
// through the INT8 pipeline. The output is deterministic apart from
// pass timings — the structural dumps are exactly what the golden IR
// tests pin.
func dumpToolchainIR() error {
	dump := func(g *nn.Graph, schema *nn.QuantSchema) error {
		_, records, err := inference.Lower(g, schema, true)
		if err != nil {
			return err
		}
		fmt.Print(ir.FormatRecords(records, true))
		return nil
	}
	fmt.Println("--- engine study model (FP32 pipeline) ---")
	if err := dump(nn.FaceDetectNet(64, nn.BuildOptions{Weights: true, Seed: 91}), nil); err != nil {
		return err
	}
	g := nn.MobileNetEdge(64, 10, nn.BuildOptions{Weights: true, Seed: 3})
	if _, err := optimize.Pipeline(g); err != nil {
		return err
	}
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		return err
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		return err
	}
	fmt.Println("--- quantized study model (INT8 pipeline) ---")
	return dump(g, schema)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vedliot-bench:", err)
	os.Exit(1)
}
