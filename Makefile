GO ?= go

.PHONY: all build vet loc examples test test-full test-race test-portable fuzz-smoke bench bench-kernels bench-json bench-gate bench-front serve-demo load-smoke docs pack-demo release-demo release-verify ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# loc prints non-test Go lines per internal/* package, the repo total
# and the assembly total: the one command a PR's LoC delta is read from.
loc:
	@./scripts/loc.sh

# examples runs every program under examples/, then the four §V use-case
# studies (PAEB, motor condition, arc detection, smart mirror) through
# vedliot-bench, which exits non-zero on any [FAIL] check. The CI docs
# job runs it after make docs has built the examples.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done
	@for id in paeb motor arc mirror; do $(GO) run ./cmd/vedliot-bench -run $$id || exit 1; done

# test runs the suite at reduced experiment fidelity (CI default).
test:
	$(GO) test -short ./...

# test-full runs every experiment at full paper fidelity.
test-full:
	$(GO) test ./...

# test-race runs the concurrent packages under the race detector, then
# stresses the front door's batching tests (its capacity rule included),
# the replica worker's dispatch tests (one request per engine run, in
# arrival order), the cluster's admission, routing and close tests, the
# engine-time observation and the recovered engine panics at the
# replica, the fleet and the socket: they form batches and backlogs by
# holding a gate, not by wall clock, so twenty runs in a row must agree.
# The slow-reader isolation test rides along: a connection that owes its
# full reply depth and never reads, beside one whose replies must all
# arrive, with completions running on the replica's dispatcher. So do
# the vanished-member and disconnect-burst tests (records whose caller
# left are dropped at the replica, never run), the read-deadline test
# (stalled peers torn down, a live one kept), the front door's graceful
# drain (the held request answered, the queued ones shutting down), the
# emulated batch (no record answered before its rows' modeled latency),
# the emulated replica (a modeled device is serial: its dispatcher holds
# each modeled latency), close under emulation (every record completed
# when close returns) and the one service estimate (a latency model
# seeds it, observed service corrects it, and under emulation the
# observation is the modeled wait), and the deploy warm-up, which probes
# every replica at once.
# The plan executor's pooled run state gets the same twenty: concurrent
# runs at mixed batch sizes, a first RunAll binding its expansion beside
# concurrent runs, a kernel error at every step and a panic on a
# goroutine of a cold compile's per-op spread. internal/accel rides in the first row for Backend.Compile on a
# registry-shared graph from two goroutines, internal/safety for one
# supervisor and one robustness service shared by goroutines. The CI
# race job runs this target.
test-race:
	$(GO) test -short -race ./internal/inference/... ./internal/accel/... ./internal/microserver/... ./internal/cluster/... ./internal/serve/... ./internal/rvbackend/... ./internal/riscv/... ./internal/soc/... ./internal/cfu/... ./internal/safety/...
	$(GO) test -race -count=20 -run 'Batch|CapacityRule|Dispatch|Gate|Admission|Saturated|BurstFollows|EstimateFollows|Warmup|CloseResolves|CancelPropagation|Recovers|EngineTime|SlowReader|Vanished|DisconnectBurst|ReadDeadline|EmulatedBatch|EmulatedReplicaIsSerial|CloseCompletesEmulated|GracefulDrain' ./internal/microserver/ ./internal/serve/ ./internal/cluster/
	$(GO) test -race -count=20 -run 'ExecutorConcurrent|ExecutorKernelError|Recovers' ./internal/inference/

# test-portable exercises the pure-Go micro-kernel fallbacks (purego
# build tag) and the narrowed runtime dispatch tiers — the same
# matrix as the CI portable job. The tier rows run with -count=1: the
# override is read at package init, where the test cache cannot see it,
# so a cached row would repeat the previous tier's result. Every row runs
# the kernel definition tests of internal/tensor (TestConvTapsF32,
# TestPadRowsF32, TestEpilogueTileF32, TestConvPlanesInt8 and
# TestRequantTileInt8 among them), so the portable body and each
# assembly body are held to the same bits.
test-portable:
	$(GO) test -tags purego ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=sse2 $(GO) test -count=1 ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=generic $(GO) test -count=1 ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=avx2 $(GO) test -count=1 ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=avx512 $(GO) test -count=1 ./internal/tensor/... ./internal/inference/...
	$(GO) test -tags purego ./internal/rvbackend/... ./internal/riscv/... ./internal/soc/... ./internal/cfu/...

# fuzz-smoke runs every fuzz target briefly — the CI smoke job that
# keeps the targets compiling and the seed corpora passing. The GEMM
# parity targets fuzz a live-row count too, so every tier's kernel body
# (and the u8×s8 body on a VNNI host) is checked against the scalar
# reference at short and full panels; the
# tile epilogue and byte-table targets hold the dispatched INT8 kernels
# to their scalar definitions,
# FuzzConvPlanesInt8 the one-pass INT8 plane kernel (fuzzed geometry,
# zero points, requantizers and code tables) to its portable body, and
# the FP32 multi-tap and tile-epilogue targets do the same for the FP32
# plane kernels, bit for bit. FuzzBuildCodeTable holds
# the INT8 code-table builders to the scalar quantizer, and
# FuzzArtifactVerify is the first untrusted decoder under fuzz: .vedz
# bytes, raw and with their section CRCs re-sealed, must never panic or
# over-allocate Verify, and what it accepts must re-encode to itself.
# FuzzFrameDecode holds the front door's frame reader and its hello,
# request and reply body decoders to the same three properties, and
# FuzzHTTPInfer the HTTP adapter: no panic, a 200 only for inputs the
# model's signature passes, every built tensor backing its shape.
# FuzzReleaseBundle runs release bundles through both the full and the
# witness-only policy, and envelopes through their decoder: no panic,
# an accepted bundle's envelope proven under its checkpoint root, and
# what decodes re-encodes to itself. FuzzWitnessState runs witness state
# files and tree hashes through their decoders: no panic, an accepted
# hash re-marshals to its own bytes (one spelling), and an accepted state
# re-saves and reloads to the same heads.
fuzz-smoke:
	$(GO) test -fuzz FuzzEncodeExecute -fuzztime 5s ./internal/riscv/
	$(GO) test -fuzz FuzzLoadStoreRoundTrip -fuzztime 5s ./internal/riscv/
	$(GO) test -fuzz FuzzDisassemble -fuzztime 5s ./internal/riscv/
	$(GO) test -fuzz FuzzVectorMAC -fuzztime 5s ./internal/cfu/
	$(GO) test -fuzz FuzzSatALU -fuzztime 5s ./internal/cfu/
	$(GO) test -fuzz FuzzGemmF32Parity -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzGemmI16Parity -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzGemmU8Parity -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzRequantInt8 -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzRequantTileInt8 -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzConvPlanesInt8 -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzLUT8 -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzConvTapsF32 -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzEpilogueTileF32 -fuzztime 5s ./internal/tensor/
	$(GO) test -fuzz FuzzConvPlaneF32 -fuzztime 5s ./internal/inference/
	$(GO) test -fuzz FuzzQConvPlane -fuzztime 5s ./internal/inference/
	$(GO) test -fuzz FuzzBuildCodeTable -fuzztime 5s ./internal/inference/
	$(GO) test -fuzz FuzzArtifactVerify -fuzztime 5s ./internal/artifact/
	$(GO) test -fuzz FuzzFrameDecode -fuzztime 5s -fuzzminimizetime 5s ./internal/serve/
	$(GO) test -fuzz FuzzHTTPInfer -fuzztime 5s -fuzzminimizetime 5s ./internal/serve/
	$(GO) test -fuzz FuzzReleaseBundle -fuzztime 5s ./internal/release/
	$(GO) test -fuzz FuzzWitnessState -fuzztime 5s ./internal/release/

# bench tracks the inference-runtime perf trajectory, and the cold-start
# steps of the two served zoo models in absolute terms: Verify (MB/s),
# Encode, then BenchmarkCompile and BenchmarkCompileQuantized, the
# evidence for a cold compile's time and bytes (with -benchmem: each
# op's weights packed once, the ops spread over GOMAXPROCS goroutines).
# BenchmarkClusterSubmit times one-record Deployment.SubmitCtx calls on
# a heterogeneous fleet deployed through DeployArtifact.
bench:
	$(GO) test -bench 'BenchmarkEngine|BenchmarkQuantized|BenchmarkVerify|BenchmarkEncode|BenchmarkCompile|BenchmarkClusterSubmit' -run '^$$' -benchmem .

# bench-kernels sweeps every compiled-in GEMM micro-kernel tier the
# host can run (generic / sse2 / avx2 / avx512) — the per-tier view
# behind the gemm_roofline_attainment_<tier> artifact lines — then the
# layers a batch-1 reply waits for (the seven mobilenetedge depthwise
# shapes at batch 1 and 8 and dense 784->300 at batch 1, 2, 3, 4 and 8,
# FP32 and INT8).
bench-kernels:
	$(GO) test -bench BenchmarkGemmTiers -run '^$$' -benchmem ./internal/tensor/
	$(GO) test -bench BenchmarkBatch1Kernels -run '^$$' -benchmem ./internal/inference/

# bench-json regenerates the gated perf artifacts (BENCH_<id>.json),
# exactly what the CI bench-gate job runs.
bench-json:
	$(GO) run ./cmd/vedliot-bench -run engine -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run quantized -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run cluster -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run serve -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run riscv -json -outdir .

# bench-gate checks the artifacts against the committed baseline —
# local runs match CI exactly.
bench-gate: bench-json
	$(GO) run ./cmd/bench-gate -baseline bench_baseline.json -dir .

# bench-front runs the measured front-door benchmark (BENCHMARK.json):
# the same command the pipeline gates on, four served workloads.
bench-front:
	$(GO) run ./benchmark -seed 7

# serve-demo smoke-checks the fleet-serving path: the smart-mirror face
# detector on a 2-device heterogeneous uRECS fleet (CPU + Xavier NX),
# replayed with the modeled device latency on; it fails on a hard
# failure or a request neither completed nor shed. The CI load-smoke job
# runs it.
serve-demo:
	$(GO) run ./cmd/vedliot-serve -chassis urecs \
		-modules "SMARC ARM,Jetson Xavier NX" \
		-model mirror-face -requests 120 -rate 400

# load-smoke drives a short closed-loop load through the framed-TCP
# front door over a real localhost socket — server and clients in one
# process — and fails unless every request is accounted for with zero
# hard failures and the adaptive batcher actually coalesced.
load-smoke:
	$(GO) run ./cmd/vedliot-serve -load-smoke -model tiny \
		-modules "SMARC ARM,SMARC ARM" \
		-clients 400 -requests-per-client 5 -think 2ms

# pack-demo smoke-checks the artifact path: pack a calibrated model,
# verify it, and fleet-serve it through the plan cache.
pack-demo:
	$(GO) run ./cmd/vedliot-pack pack -model mirror-face -int8 -o mirror-face.vedz
	$(GO) run ./cmd/vedliot-pack verify mirror-face.vedz
	$(GO) run ./cmd/vedliot-serve -chassis urecs \
		-modules "SMARC ARM,SMARC ARM" \
		-model mirror-face.vedz -requests 120 -rate 400
	rm -f mirror-face.vedz

# release-demo walks the signed release channel end to end: provision
# keys, pack an artifact, sign it into the transparency log, witness the
# checkpoint, verify under the policy, then deploy through the
# policy-gated registry — printing the per-replica attestation table
# that binds each running replica to the authorized digest.
release-demo:
	rm -rf release-demo.tmp && mkdir -p release-demo.tmp
	$(GO) run ./cmd/vedliot-pack keygen -o release-demo.tmp/keys
	$(GO) run ./cmd/vedliot-pack pack -model mirror-face -o release-demo.tmp/mirror-face.vedz
	$(GO) run ./cmd/vedliot-pack sign -keys release-demo.tmp/keys \
		-log release-demo.tmp/log.json \
		-o release-demo.tmp/mirror-face.bundle.json release-demo.tmp/mirror-face.vedz
	$(GO) run ./cmd/vedliot-pack witness -keys release-demo.tmp/keys \
		-log release-demo.tmp/log.json -state release-demo.tmp/witness.json \
		-bundle release-demo.tmp/mirror-face.bundle.json
	$(GO) run ./cmd/vedliot-pack verify -policy release-demo.tmp/keys \
		-bundle release-demo.tmp/mirror-face.bundle.json release-demo.tmp/mirror-face.vedz
	$(GO) run ./cmd/vedliot-serve -chassis urecs \
		-modules "SMARC ARM,Jetson Xavier NX" \
		-model release-demo.tmp/mirror-face.vedz \
		-policy release-demo.tmp/keys \
		-bundle release-demo.tmp/mirror-face.bundle.json \
		-requests 120 -rate 400
	rm -rf release-demo.tmp

# release-verify runs the CI release-channel gate locally: positive
# sign/log/witness/verify flow plus the three mandated refusals
# (bit-flipped artifact, unlogged bundle, forked log).
release-verify:
	./scripts/release_verify.sh

# docs gates the documentation front door: formatting, examples build,
# exported-identifier doc coverage, no exported top-level name without a
# caller outside its own package's tests, no backticked `pkg.Name`, test
# name or make target in DESIGN.md or README.md that the tree does not
# declare, no CHANGES.md entry numbered 26 or later over 3 KB, no
# DESIGN.md longer than docs-check's designCeiling, and the committed
# golden artifact. The CI docs job runs this target.
docs:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) build -o /dev/null ./examples/...
	$(GO) run ./cmd/docs-check . ./internal/* ./internal/inference/ir ./internal/rvbackend/difftest ./internal/tensor/cpu DESIGN.md README.md
	$(GO) run ./cmd/vedliot-pack verify internal/artifact/testdata/golden.vedz

ci: vet build docs test test-race test-portable fuzz-smoke load-smoke release-verify bench-gate
