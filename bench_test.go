package vedliot

import (
	"fmt"
	"testing"

	"vedliot/internal/artifact"
	"vedliot/internal/bench"
	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/tensor"
	"vedliot/internal/zoo"
)

// benchExperiment wraps one harness experiment as a testing.B benchmark:
// each iteration regenerates the full table/figure and fails the
// benchmark if any embedded shape check regresses.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if failed := rep.Failed(); len(failed) > 0 {
			b.Fatalf("%s: failed checks %v", id, failed)
		}
	}
}

// BenchmarkFig2FormFactors regenerates Fig. 2 (COM form factors).
func BenchmarkFig2FormFactors(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3AcceleratorSurvey regenerates Fig. 3 (accelerator survey).
func BenchmarkFig3AcceleratorSurvey(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTOPSWCluster regenerates the ~1 TOPS/W clustering analysis.
func BenchmarkTOPSWCluster(b *testing.B) { benchExperiment(b, "topsw") }

// BenchmarkFig4YoloV4 regenerates Fig. 4 (YoloV4 sweep).
func BenchmarkFig4YoloV4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig4ResNet50MobileNetV3 regenerates the §II-C companion
// sweeps (ResNet50, MobileNetV3).
func BenchmarkFig4ResNet50MobileNetV3(b *testing.B) { benchExperiment(b, "fig4r") }

// BenchmarkURECSPower regenerates the uRECS power-envelope study.
func BenchmarkURECSPower(b *testing.B) { benchExperiment(b, "urecs") }

// BenchmarkReconfiguration regenerates the run-time reconfiguration
// study.
func BenchmarkReconfiguration(b *testing.B) { benchExperiment(b, "recon") }

// BenchmarkDeepCompression regenerates the §III compression pipeline.
func BenchmarkDeepCompression(b *testing.B) { benchExperiment(b, "comp49") }

// BenchmarkTheoryVsHardware regenerates the §III theory-vs-hardware
// speed-up comparison.
func BenchmarkTheoryVsHardware(b *testing.B) { benchExperiment(b, "theory") }

// BenchmarkKenningPipeline regenerates the Kenning measurement reports.
func BenchmarkKenningPipeline(b *testing.B) { benchExperiment(b, "kenning") }

// BenchmarkTwine regenerates the native/WASM/WASM+SGX database study.
func BenchmarkTwine(b *testing.B) { benchExperiment(b, "twine") }

// BenchmarkPMP regenerates the RISC-V PMP evaluation.
func BenchmarkPMP(b *testing.B) { benchExperiment(b, "pmp") }

// BenchmarkCFU regenerates the CFU acceleration study.
func BenchmarkCFU(b *testing.B) { benchExperiment(b, "cfu") }

// BenchmarkAttestation regenerates the remote-attestation flow.
func BenchmarkAttestation(b *testing.B) { benchExperiment(b, "attest") }

// BenchmarkSafetyMonitors regenerates the §IV-B monitor evaluation.
func BenchmarkSafetyMonitors(b *testing.B) { benchExperiment(b, "safety") }

// BenchmarkPAEB regenerates the automotive offload study.
func BenchmarkPAEB(b *testing.B) { benchExperiment(b, "paeb") }

// BenchmarkMotorCondition regenerates the motor-monitoring study.
func BenchmarkMotorCondition(b *testing.B) { benchExperiment(b, "motor") }

// BenchmarkArcDetection regenerates the arc-detection study.
func BenchmarkArcDetection(b *testing.B) { benchExperiment(b, "arc") }

// BenchmarkSmartMirror regenerates the smart-mirror pipeline study.
func BenchmarkSmartMirror(b *testing.B) { benchExperiment(b, "mirror") }

// BenchmarkAblationRoofline contrasts the roofline and peak-only device
// models.
func BenchmarkAblationRoofline(b *testing.B) { benchExperiment(b, "ablation-roofline") }

// BenchmarkAblationQuantGranularity contrasts per-tensor and
// per-channel quantization.
func BenchmarkAblationQuantGranularity(b *testing.B) { benchExperiment(b, "ablation-quant") }

// BenchmarkAblationPruning contrasts structured and unstructured
// pruning on hardware.
func BenchmarkAblationPruning(b *testing.B) { benchExperiment(b, "ablation-prune") }

// BenchmarkAblationEcallBatching contrasts enclave transition
// granularities.
func BenchmarkAblationEcallBatching(b *testing.B) { benchExperiment(b, "ablation-ecall") }

// BenchmarkClusterServing regenerates the fleet-serving study:
// throughput vs replica count under the synthetic open-loop trace plus
// the heterogeneous uRECS fleet on the real serving path.
func BenchmarkClusterServing(b *testing.B) { benchExperiment(b, "cluster") }

// BenchmarkServeFrontDoor regenerates the network front-door study:
// the framed-TCP load run comparing adaptive socket-boundary batching
// with batch-size-1 passthrough.
func BenchmarkServeFrontDoor(b *testing.B) { benchExperiment(b, "serve") }

// BenchmarkClusterSubmit measures the real serving path end to end:
// async Submit/Wait through the scheduler, its admission queue and a
// heterogeneous fleet's batching servers.
func BenchmarkClusterSubmit(b *testing.B) {
	chassis := microserver.NewURECS()
	for slot, name := range []string{"SMARC ARM", "Jetson Xavier NX", "Coral SoM"} {
		m, err := microserver.FindModule(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := chassis.Insert(slot, m); err != nil {
			b.Fatal(err)
		}
	}
	sched := cluster.NewScheduler(chassis, cluster.Config{QueueDepth: 1024})
	defer sched.Close()
	g := nn.FaceDetectNet(32, nn.BuildOptions{Weights: true, Seed: 7})
	if _, err := sched.Deploy(g); err != nil {
		b.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 1, 32, 32)
	for i := range in.F32 {
		in.F32[i] = float32(i%17)/17 - 0.5
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: in}
	b.ResetTimer()
	tickets := make([]*cluster.Ticket, 0, b.N)
	for i := 0; i < b.N; i++ {
		tk, err := sched.Submit(g.Name, ins)
		if err != nil {
			// Admission shed under benchmark pressure: wait out the
			// backlog and retry once.
			for _, t := range tickets {
				if _, werr := t.Wait(); werr != nil {
					b.Fatal(werr)
				}
			}
			tickets = tickets[:0]
			if tk, err = sched.Submit(g.Name, ins); err != nil {
				b.Fatal(err)
			}
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine tracks the inference-runtime perf trajectory on a
// smart-mirror-class convolutional workload: the legacy tree-walking
// interpreter vs the compiled execution-plan engine at batch 1, 8 and
// 32, plus the fused RunBatch dispatch path and the two served zoo
// models at batch 1 (the mlp at 2 and 4 too). Compare matching batch
// sizes across sub-benchmarks, e.g.:
//
//	go test -bench BenchmarkEngine -run ^$ .
func BenchmarkEngine(b *testing.B) {
	g := nn.FaceDetectNet(64, nn.BuildOptions{Weights: true, Seed: 7})
	interp, err := inference.NewInterpreter(g)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	input := func(batch, seed int) *tensor.Tensor {
		in := tensor.New(tensor.FP32, batch, 1, 64, 64)
		for i := range in.F32 {
			in.F32[i] = float32((i*3+seed)%17)/17 - 0.5
		}
		return in
	}
	for _, batch := range []int{1, 8, 32} {
		in := input(batch, 1)
		b.Run(fmt.Sprintf("interpreter/batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := interp.RunSingle(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("engine/batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunSingle(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Fused dispatch of 8 independent single-sample requests.
	reqs := make([]map[string]*tensor.Tensor, 8)
	for i := range reqs {
		reqs[i] = map[string]*tensor.Tensor{g.Inputs[0]: input(1, i)}
	}
	b.Run("engine/runbatch8x1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunBatch(reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The two zoo models the front door serves, in absolute ns per
	// inference at batch 1, the shape a reply waits for, and the mlp at
	// the short batches a busy replica is handed (the dense row body).
	for _, m := range []struct {
		name    string
		batches []int
	}{{"mlp", []int{1, 2, 4}}, {"mobilenetedge", []int{1}}} {
		entry, err := zoo.Find(m.name)
		if err != nil {
			b.Fatal(err)
		}
		zg := entry.Build()
		zeng, err := inference.Compile(zg)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range m.batches {
			in, err := nn.SyntheticInput(zg, batch, 9)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/batch%d", m.name, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := zeng.Run(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQuantized tracks the native INT8 engine against the FP32
// engine on the MobileNet-style workload at batch 1 and 8 (single
// core), the headline comparison of the quantized bench experiment.
func BenchmarkQuantized(b *testing.B) {
	g := nn.MobileNetEdge(64, 10, nn.BuildOptions{Weights: true, Seed: 3})
	if _, err := optimize.Pipeline(g); err != nil {
		b.Fatal(err)
	}
	input := func(batch, seed int) map[string]*tensor.Tensor {
		in, err := nn.SyntheticInput(g, batch, seed)
		if err != nil {
			b.Fatal(err)
		}
		return in
	}
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := inference.Compile(g, inference.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	q, err := inference.CompileQuantized(g, schema, inference.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 8} {
		in := input(batch, 9)
		b.Run(fmt.Sprintf("fp32/batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fp.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("int8/batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCompile measures one-time compilation cost (kernel
// binding, weight dequantization and memory planning).
func BenchmarkEngineCompile(b *testing.B) {
	g := nn.FaceDetectNet(64, nn.BuildOptions{Weights: true, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inference.Compile(g); err != nil {
			b.Fatal(err)
		}
	}
}

// coldStartModel is a zoo model under its zoo name.
type coldStartModel struct {
	name string
	*artifact.Model
}

// coldStartModels are the two zoo models the front-door benchmark
// serves, packed as it packs them: the mlp in FP32 and mobilenetedge
// with an embedded calibration schema. The cold-start benchmarks below
// time the steps a deploy runs on them in absolute terms.
func coldStartModels(b *testing.B) []coldStartModel {
	b.Helper()
	var models []coldStartModel
	for _, name := range []string{"mlp", "mobilenetedge"} {
		entry, err := zoo.Find(name)
		if err != nil {
			b.Fatal(err)
		}
		m := &artifact.Model{Graph: entry.Build()}
		if name == "mobilenetedge" {
			samples, err := nn.SyntheticCalibration(m.Graph, 4)
			if err != nil {
				b.Fatal(err)
			}
			if m.Schema, err = optimize.Calibrate(m.Graph, samples); err != nil {
				b.Fatal(err)
			}
		}
		models = append(models, coldStartModel{name, m})
	}
	return models
}

// BenchmarkVerify measures the integrity check a deploy starts with:
// MB/s over the artifact's bytes, one SHA-256 and one copy among them.
func BenchmarkVerify(b *testing.B) {
	for _, m := range coldStartModels(b) {
		data, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := artifact.Verify(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode measures packing a model into its .vedz bytes.
func BenchmarkEncode(b *testing.B) {
	for _, m := range coldStartModels(b) {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data, err := m.Encode()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
			}
		})
	}
}

// BenchmarkCompile measures the FP32 lowering and bind of a served
// model: what a plan-cache miss costs on a CPU module.
func BenchmarkCompile(b *testing.B) {
	for _, m := range coldStartModels(b) {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inference.Compile(m.Graph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileQuantized measures the INT8 lowering of mobilenetedge
// under its schema: filter quantization, the per-channel code tables and
// the integer bind.
func BenchmarkCompileQuantized(b *testing.B) {
	m := coldStartModels(b)[1]
	for i := 0; i < b.N; i++ {
		if _, err := inference.CompileQuantized(m.Graph, m.Schema); err != nil {
			b.Fatal(err)
		}
	}
}
