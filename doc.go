// Package vedliot is a from-scratch Go reproduction of "VEDLIoT: Very
// Efficient Deep Learning in IoT" (DATE 2022): the RECS cognitive IoT
// hardware platform, the DL accelerator evaluation methodology, the
// ONNX-centric optimizing toolchain, the trusted-execution and
// attestation stack, the DL safety monitors and the three use-case
// domains — each backed by simulators where the paper used physical
// hardware.
//
// The execution stack offers two compiled runtimes behind one
// Backend/Executable interface pair: the FP32 execution-plan engine and
// a native INT8 engine (integer kernels, fixed-point requantization,
// lookup-table epilogues) driven by a calibrated nn.QuantSchema — the
// runtime the INT8-only edge accelerators of the paper's Fig. 4
// evaluation are modeled on. Both compilers drive one shared lowering
// pipeline (internal/inference/ir): a typed IR plus an ordered pass
// manager — shape inference, constant folding, identity/dead/CSE
// elimination, epilogue fusion, precision assignment — with
// deterministic pass-by-pass textual dumps (kenning -dump-ir,
// vedliot-bench -dump-ir) pinned by golden tests.
//
// Both engines lower channel-heavy convolutions and batched dense
// layers onto packed, register-blocked GEMM micro-kernels
// (internal/tensor): weights are packed once at bind time, activation
// tiles are packed fused with the im2col gather, and the widest
// micro-kernel variant the host supports — portable Go, SSE2, or AVX2
// (6x16 FP32 / 4x16 INT8 PMADDWD tiles) — is selected at runtime by
// internal/tensor/cpu (VEDLIOT_CPU narrows, the purego build tag
// forces the portable path). All variants are exact: FP32 results are
// bitwise identical to the reference interpreter, INT8 accumulation is
// associative int32.
//
// Deployment is artifact-driven: internal/artifact packages a model
// (graph, weights, calibrated schema, provenance) into a versioned,
// CRC-checked, content-digested .vedz file with zero-copy weight
// loading, and internal/cluster deploys fleets from a model registry
// through a fleet-wide compiled-plan cache (inference.PlanCache) — a
// replica cold-start is load + bind, never calibrate + lower.
// cmd/vedliot-pack packs, inspects and verifies artifacts;
// cmd/vedliot-serve serves them across heterogeneous chassis.
//
// See README.md for the map of the repository and DESIGN.md for the
// system inventory, the Backend/Engine execution architecture, the
// lowering IR and pass manager, the quantized-execution path, the
// artifact wire format and plan-cache invariants, and the
// per-experiment index; cmd/vedliot-bench regenerates every table and
// figure, and cmd/bench-gate enforces the committed perf baseline in
// CI.
package vedliot
