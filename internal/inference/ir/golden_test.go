package ir_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vedliot/internal/inference/ir"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
)

// The golden pass-pipeline tests pin the lowering IR's textual form
// after every pass for representative example graphs, FP32 and INT8.
// An accidental pass reordering, a changed rewrite decision or a
// nondeterministic dump fails loudly against the committed files.
//
// Regenerate with:
//
//	go test ./internal/inference/ir -run TestGolden -update

var update = flag.Bool("update", false, "rewrite the golden IR dumps in testdata/")

// pipelineDump renders the pass-by-pass lowering trace: the module
// after every pass of the shared pipeline, with op counts. Timings are
// deliberately excluded — the trace must be byte-stable.
func pipelineDump(t *testing.T, g *nn.Graph, schema *nn.QuantSchema) string {
	t.Helper()
	_, recs, err := ir.Lower(g, schema, true)
	if err != nil {
		t.Fatalf("lower %s: %v", g.Name, err)
	}
	return ir.FormatRecords(recs, false)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("pass pipeline for %s diverged from golden file %s\n--- got ---\n%s", name, path, got)
	}
}

// TestGoldenLoweringFP32 pins the FP32 pipeline on two example
// topologies: LeNet (conv/pool/dense/softmax with direct conv+ReLU
// fusion) and the smart-mirror face detector (conv→BN→ReLU blocks,
// the full epilogue chain).
func TestGoldenLoweringFP32(t *testing.T) {
	for _, tc := range []struct {
		file string
		g    *nn.Graph
	}{
		{"lenet_fp32.ir", nn.LeNet(28, 10, nn.BuildOptions{Weights: true, Seed: 1})},
		{"facedetect_fp32.ir", nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 4})},
	} {
		t.Run(tc.file, func(t *testing.T) {
			checkGolden(t, tc.file, pipelineDump(t, tc.g, nil))
		})
	}
}

// TestGoldenLoweringINT8 pins the INT8 pipeline on the gesture
// classifier: precision assignment stamps every value, conv→BN→ReLU
// chains fuse into per-channel lookup epilogues, and the softmax head
// becomes the one FP32 island.
func TestGoldenLoweringINT8(t *testing.T) {
	g := nn.GestureNet(32, 4, nn.BuildOptions{Weights: true, Seed: 6})
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "gesture_int8.ir", pipelineDump(t, g, schema))
}

// TestGoldenDumpByteStable lowers the same graph twice and requires
// identical pass-by-pass dumps — the determinism the golden files (and
// reproducible arena layouts) rest on.
func TestGoldenDumpByteStable(t *testing.T) {
	a := pipelineDump(t, nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 4}), nil)
	b := pipelineDump(t, nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 4}), nil)
	if a != b {
		t.Error("pass-by-pass dump is not byte-stable across lowerings")
	}
}
