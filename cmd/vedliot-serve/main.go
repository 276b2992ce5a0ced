// Command vedliot-serve drives the fleet-serving layer end to end: it
// assembles a RECS chassis, deploys a model onto every mounted compute
// module through the cluster scheduler, replays a synthetic open-loop
// request trace against the fleet in real time and reports latency,
// throughput, cost-aware routing and the chassis power view; it exits
// non-zero on a hard failure or a request neither completed nor shed.
//
// Every model deploys as a .vedz deployment artifact: a file packed by
// vedliot-pack, or a zoo entry built in process and packed in memory.
// The artifact is registered in the cluster model registry and
// replicas deploy through the fleet-wide compiled-plan cache (replica
// cold-start is load + bind, not calibrate + lower), with the
// artifact's embedded calibration schema — the only one a fleet runs —
// driving INT8-capable modules; -int8 calibrates a model without one
// and packs the schema in, which changes its digest. With -policy the
// registry becomes a gated release channel: the artifact deploys only
// with a bundle proving a trusted signature, transparency-log inclusion
// and a witnessed checkpoint, and every replica then proves via enclave
// attestation that it runs exactly the authorized digest.
//
// Beyond the trace replay, the command is also the network front door:
// -listen exposes the deployed fleet over the framed-TCP protocol
// (plus an optional -http JSON adapter) with per-tenant API keys and
// socket-boundary adaptive batching, -load turns the binary into a
// closed-loop load generator driving a remote front door, and
// -load-smoke runs both ends in one process over a real localhost
// socket and fails unless the run is clean and requests coalesced.
//
// Usage:
//
//	vedliot-serve -chassis urecs -modules "SMARC ARM,Jetson Xavier NX" \
//	    -model mirror-face -requests 120 -rate 400
//	vedliot-serve -model mirror-face.vedz -requests 120
//	vedliot-serve -model mirror-gesture -int8 -soc-tier -requests 60 -rate 50
//	vedliot-serve -model mirror-face.vedz -policy keys/ -bundle mirror-face.vedz.bundle.json
//	vedliot-serve -model tiny -listen :9090 -http :9091 -keys edge=tenant-a
//	vedliot-serve -load 127.0.0.1:9090 -model tiny -clients 2000 -key edge
//	vedliot-serve -load-smoke -model tiny
//	vedliot-serve -list-models
package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"vedliot/internal/artifact"
	"vedliot/internal/cluster"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/release"
	"vedliot/internal/serve"
	"vedliot/internal/tensor"
	"vedliot/internal/zoo"
)

// HTTP adapter timeouts: a client that stalls mid-headers, mid-body or
// mid-response, or parks an idle keep-alive connection, is cut off
// instead of holding a connection and its goroutine for good. An infer
// request is one JSON tensor map in and one out, served in milliseconds.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpReadTimeout       = 30 * time.Second
	httpWriteTimeout      = 30 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

func main() {
	chassisName := flag.String("chassis", "urecs", "chassis: urecs, trecs, recsbox")
	modules := flag.String("modules", "SMARC ARM,Jetson Xavier NX", "comma-separated module names (slot order)")
	model := flag.String("model", "mirror-face", "model-zoo entry or .vedz artifact file to deploy")
	listModels := flag.Bool("list-models", false, "list servable model-zoo entries")
	requests := flag.Int("requests", 120, "trace length")
	rate := flag.Float64("rate", 400, "open-loop arrival rate (req/s)")
	seed := flag.Int64("seed", 42, "trace seed")
	queue := flag.Int("queue", 256, "admission bound: requests a model has admitted and not yet answered")
	emulate := flag.Bool("emulate", true, "stretch accelerator requests to modeled latency")
	int8Serve := flag.Bool("int8", false, "calibrate the model and serve INT8-capable accelerator replicas on the native quantized engine")
	socTier := flag.Bool("soc-tier", false, "also mount the RISC-V CFU SoM: a replica serving INT8 firmware on the emulated SoC (requires -int8 or an artifact with an embedded schema)")
	listen := flag.String("listen", "", "serve the fleet over framed TCP on this address instead of replaying a trace")
	httpAddr := flag.String("http", "", "with -listen: also serve the HTTP/JSON adapter on this address")
	keys := flag.String("keys", "", "comma-separated key=tenant API keys for -listen (empty = open mode)")
	maxBatch := flag.Int("max-batch", 32, "front-door coalescing cap in rows (1 = passthrough)")
	maxDelay := flag.Duration("max-delay", time.Millisecond, "front-door longest hold while every replica is busy")
	loadAddr := flag.String("load", "", "run as a closed-loop load generator against this front-door address")
	clients := flag.Int("clients", 1000, "load generator: concurrent closed-loop clients")
	perClient := flag.Int("requests-per-client", 4, "load generator: requests per client")
	think := flag.Duration("think", 10*time.Millisecond, "load generator: mean think time between requests")
	slo := flag.Duration("slo", 100*time.Millisecond, "trace replay and load generator: per-request latency objective")
	conns := flag.Int("conns", 8, "load generator: pooled connections")
	key := flag.String("key", "", "load generator: API key")
	loadSmoke := flag.Bool("load-smoke", false, "serve and load the fleet in-process over a localhost socket; exit non-zero unless the run is clean and requests coalesced")
	policyDir := flag.String("policy", "", "release key directory (vedliot-pack keygen): gate artifact deployment on the signed, witnessed release bundle")
	bundlePath := flag.String("bundle", "", "release bundle for the .vedz artifact (required with -policy)")
	minWitnesses := flag.Int("min-witnesses", 1, "witness countersignatures -policy requires")
	flag.Parse()

	if *listModels {
		for _, e := range zoo.Entries() {
			fmt.Printf("%-16s %s\n", e.Name, e.About)
		}
		return
	}

	if *loadAddr != "" {
		if err := runLoad(*loadAddr, *model, *key, *conns, serve.LoadConfig{
			Clients:           *clients,
			RequestsPerClient: *perClient,
			Think:             *think,
			SLO:               *slo,
			Seed:              *seed,
		}); err != nil {
			fatal(err)
		}
		return
	}

	// Resolve the model as a deployment artifact: a .vedz file, or a
	// zoo entry built in process and packed in memory below.
	var art *artifact.Model
	about := ""
	if strings.HasSuffix(*model, ".vedz") {
		m, err := artifact.Load(*model)
		if err != nil {
			fatal(err)
		}
		art = m
		about = "artifact " + *model
	} else {
		if *policyDir != "" {
			fatal(fmt.Errorf("-policy applies to .vedz artifact deployments only"))
		}
		entry, err := zoo.Find(*model)
		if err != nil {
			fatal(err)
		}
		art = &artifact.Model{Graph: entry.Build(), Prov: artifact.Provenance{Tool: "vedliot-serve"}}
		about = entry.About
	}

	// Assemble the platform.
	var chassis *microserver.Chassis
	switch *chassisName {
	case "urecs":
		chassis = microserver.NewURECS()
	case "trecs":
		chassis = microserver.NewTRECS(3)
	case "recsbox":
		chassis = microserver.NewRECSBox(4)
	default:
		fatal(fmt.Errorf("unknown chassis %q", *chassisName))
	}
	fmt.Printf("%s (%s tier), %d slots, baseboard %.1f W\n",
		chassis.Name, chassis.Tier, len(chassis.Slots), chassis.BaseboardW)

	// Resolve the calibration schema before the fleet compiles
	// per-module executables: the artifact's own, or with -int8 one
	// calibrated here and packed into the artifact, which changes its
	// digest.
	g := art.Graph
	if art.Schema != nil {
		fmt.Printf("artifact embeds %d calibrated activation ranges\n", len(art.Schema.Activations))
	} else if *int8Serve {
		if *policyDir != "" {
			fatal(fmt.Errorf("-int8 re-packs %s with a calibrated schema, which changes the digest its release bundle signs; "+
				"pack the schema with `vedliot-pack pack -int8` and sign that artifact", *model))
		}
		schema, err := calibrate(g)
		if err != nil {
			fatal(err)
		}
		art.Schema, art.Digest = schema, ""
		fmt.Printf("calibrated %d activation ranges: INT8 accelerator replicas use the native quantized engine\n",
			len(schema.Activations))
	}
	if art.Digest == "" {
		if _, err := art.Encode(); err != nil {
			fatal(err)
		}
	}
	about += ", " + art.Digest

	names := strings.Split(*modules, ",")
	if *socTier {
		if art.Schema == nil {
			fatal(fmt.Errorf("-soc-tier serves INT8 firmware only: pass -int8 or deploy an artifact with an embedded schema"))
		}
		names = append(names, "RISC-V CFU SoM")
	}
	if _, err := chassis.Mount(names...); err != nil {
		fatal(err)
	}

	// Deploy the fleet through the model registry and the fleet-wide
	// compiled-plan cache.
	ccfg := cluster.Config{QueueDepth: *queue, EmulateLatency: *emulate, Registry: cluster.NewRegistry()}
	if *policyDir != "" {
		// Policy-gated release channel: the registry refuses the
		// artifact unless the bundle proves signature, transparency-log
		// inclusion and the witness quorum; DeployArtifact re-verifies.
		if *bundlePath == "" {
			fatal(fmt.Errorf("-policy requires -bundle"))
		}
		pol, err := release.LoadPolicyDir(*policyDir, *minWitnesses)
		if err != nil {
			fatal(err)
		}
		ccfg.Registry.SetPolicy(pol)
		b, err := release.LoadBundle(*bundlePath)
		if err != nil {
			fatal(err)
		}
		if err := ccfg.Registry.AddRelease(art, b); err != nil {
			fatal(err)
		}
		fmt.Printf("release gate: signer %s, log %s leaf %d of %d, %d witness countersignature(s) (quorum %d)\n",
			b.Envelope.SignerID, b.Checkpoint.Origin, b.LeafIndex, b.Checkpoint.Size,
			len(b.Checkpoint.Witness), *minWitnesses)
	} else if err := ccfg.Registry.Add(art); err != nil {
		fatal(err)
	}
	sched := cluster.NewScheduler(chassis, ccfg)
	defer sched.Close()
	dep, err := sched.DeployArtifact(g.Name)
	if err != nil {
		fatal(err)
	}
	for _, rs := range dep.Stats().Replicas {
		m := chassis.Slots[rs.Slot].Module()
		fmt.Printf("slot %d <- %-18s (%s, %.1f-%.1f W) backend %s\n",
			rs.Slot, m.Name, m.Arch, m.IdleW, m.MaxW, rs.Backend)
	}
	inShape := append(tensor.Shape{1}, g.Node(g.Inputs[0]).Attrs.Shape...)
	fmt.Printf("\ndeployed %s (%s) on %d replicas, input %v\n",
		g.Name, about, len(dep.Replicas()), inShape)
	ps := ccfg.Registry.Plans().Stats()
	fmt.Printf("plan cache: %d plan(s) compiled for %d replicas (%d cache hit(s))\n",
		ps.Entries, len(dep.Replicas()), ps.Hits)
	if err := printAttestation(dep); err != nil {
		fatal(err)
	}

	policy := serve.BatchPolicy{MaxBatch: *maxBatch, MaxDelay: *maxDelay}
	if *loadSmoke {
		if err := runSmoke(sched, g, inShape, policy, *clients, *perClient, *think, *slo, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *listen != "" {
		if err := runListen(sched, *listen, *httpAddr, parseKeys(*keys), policy); err != nil {
			fatal(err)
		}
		return
	}

	// Replay the open-loop trace in real time.
	trace := cluster.OpenLoopTrace(*requests, *rate, *seed)
	fmt.Printf("replaying %d requests at %.0f req/s (span %v)...\n",
		*requests, *rate, trace.Duration().Round(time.Millisecond))
	ins := fleetInput(g, inShape)
	res, err := serve.ReplayOpenLoop(sched, trace, serve.LoadConfig{
		Model:  g.Name,
		SLO:    *slo,
		Inputs: func(int) map[string]*tensor.Tensor { return ins },
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	printLoad(res)

	fmt.Printf("\nrouting (cost = service estimate x queue depth, power tie-break):\n")
	st := dep.Stats()
	for _, line := range st.ReplicaTable() {
		fmt.Println(line)
	}
	util := map[int]float64{}
	for _, rs := range st.Replicas {
		util[rs.Slot] = 1
	}
	fmt.Printf("chassis power: %.1f W idle-fleet, %.1f W all-serving (budget %.0f W)\n",
		chassis.PowerW(nil), chassis.PowerW(util), chassis.BudgetW)
	if err := accounted("replay", res); err != nil {
		fatal(err)
	}
}

// printAttestation challenges every replica of an artifact deployment
// with a fresh nonce under an ephemeral platform key and prints the
// verified identity table: each replica proves its enclave measurement
// binds the exact artifact digest the release policy authorized to the
// backend and module it runs on.
func printAttestation(dep *cluster.Deployment) error {
	platformPub, platformKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	atts, err := dep.Attest(nonce, platformKey)
	if err != nil {
		return err
	}
	fmt.Printf("replica attestation (digest %s):\n", dep.ArtifactDigest())
	for _, a := range atts {
		status := "VERIFIED"
		if err := cluster.VerifyReplicaAttestation(a, platformPub, dep.ArtifactDigest(), nonce); err != nil {
			status = "FAILED: " + err.Error()
		}
		fmt.Printf("  replica %d slot %d %-18s %-20s measurement %x... ecall overhead %v  %s\n",
			a.Replica, a.Slot, a.Module, a.Backend, a.Quote.Measurement[:6],
			time.Duration(a.EcallOverheadNS), status)
	}
	return nil
}

// parseKeys turns "key=tenant,key2=tenant2" into the server key map
// (nil for an empty spec: open mode).
func parseKeys(spec string) map[string]string {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	m := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, tenant, ok := strings.Cut(pair, "=")
		if !ok {
			tenant = k
		}
		m[k] = tenant
	}
	return m
}

// fleetInput builds a deterministic single-sample request for the
// model's declared input shape.
func fleetInput(g *nn.Graph, inShape tensor.Shape) map[string]*tensor.Tensor {
	input := tensor.New(tensor.FP32, inShape...)
	for i := range input.F32 {
		input.F32[i] = float32(i%13)/13 - 0.5
	}
	return map[string]*tensor.Tensor{g.Inputs[0]: input}
}

// runListen exposes the deployed fleet over the framed protocol (and
// optionally HTTP) until interrupted, then prints ingestion telemetry.
func runListen(sched *cluster.Scheduler, addr, httpAddr string, keys map[string]string, policy serve.BatchPolicy) error {
	srv, err := serve.Listen(addr, sched, serve.Config{Keys: keys, Batch: policy})
	if err != nil {
		return err
	}
	defer srv.Close()
	mode := "open mode"
	if keys != nil {
		mode = fmt.Sprintf("%d API key(s)", len(keys))
	}
	fmt.Printf("\nframed TCP front door on %s (%s, max batch %d, max delay %v)\n",
		srv.Addr(), mode, policy.MaxBatch, policy.MaxDelay)
	var hsrv *http.Server
	if httpAddr != "" {
		hsrv = &http.Server{
			Addr:              httpAddr,
			Handler:           srv.Handler(),
			ReadHeaderTimeout: httpReadHeaderTimeout,
			ReadTimeout:       httpReadTimeout,
			WriteTimeout:      httpWriteTimeout,
			IdleTimeout:       httpIdleTimeout,
		}
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "vedliot-serve: http:", err)
			}
		}()
		fmt.Printf("HTTP/JSON adapter on %s (POST /v1/infer, GET /v1/models, GET /v1/stats)\n", httpAddr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	if hsrv != nil {
		hsrv.Close()
	}
	st := srv.Stats()
	fmt.Printf("\n%d conns accepted, %d requests: %d overloaded, %d unauthorized, %d bad, %d errors\n",
		st.Accepted, st.Requests, st.Overloaded, st.Unauthorized, st.BadRequest, st.Errors)
	fmt.Printf("coalescing: %d rows over %d submissions (%.1f rows/batch)\n",
		st.BatchedRows, st.Batches, st.MeanBatch)
	return nil
}

// runLoad drives a closed-loop client population against a remote
// front door. The model must be a zoo entry so the generator can shape
// the request tensors locally.
func runLoad(addr, model, key string, conns int, cfg serve.LoadConfig) error {
	entry, err := zoo.Find(model)
	if err != nil {
		return err
	}
	g := entry.Build()
	ins := fleetInput(g, append(tensor.Shape{1}, g.Node(g.Inputs[0]).Attrs.Shape...))
	cfg.Model = g.Name
	cfg.Inputs = func(int) map[string]*tensor.Tensor { return ins }
	pool, err := serve.DialPool(addr, key, conns)
	if err != nil {
		return err
	}
	defer pool.Close()
	fmt.Printf("closed loop against %s: %d clients x %d requests of %s over %d conns (think %v, SLO %v)\n",
		addr, cfg.Clients, cfg.RequestsPerClient, g.Name, conns, cfg.Think, cfg.SLO)
	res, err := serve.RunClosedLoop(pool, cfg)
	if err != nil {
		return err
	}
	printLoad(res)
	return nil
}

// runSmoke serves the already-deployed fleet on a localhost socket,
// drives a short closed-loop load through real frames and fails unless
// the run is clean (no hard failures, every request accounted for) and
// the front door actually coalesced.
func runSmoke(sched *cluster.Scheduler, g *nn.Graph, inShape tensor.Shape, policy serve.BatchPolicy,
	clients, perClient int, think, slo time.Duration, seed int64) error {
	srv, err := serve.Listen("127.0.0.1:0", sched, serve.Config{Batch: policy})
	if err != nil {
		return err
	}
	defer srv.Close()
	pool, err := serve.DialPool(srv.Addr(), "", 4)
	if err != nil {
		return err
	}
	defer pool.Close()
	ins := fleetInput(g, inShape)
	fmt.Printf("\nload-smoke on %s: %d clients x %d requests (think %v, max batch %d)\n",
		srv.Addr(), clients, perClient, think, policy.MaxBatch)
	res, err := serve.RunClosedLoop(pool, serve.LoadConfig{
		Model:             g.Name,
		Clients:           clients,
		RequestsPerClient: perClient,
		Think:             think,
		SLO:               slo,
		Inputs:            func(int) map[string]*tensor.Tensor { return ins },
		Seed:              seed,
	})
	if err != nil {
		return err
	}
	printLoad(res)
	st := srv.Stats()
	fmt.Printf("coalescing: %d rows over %d submissions (%.1f rows/batch)\n",
		st.BatchedRows, st.Batches, st.MeanBatch)
	if err := accounted("load-smoke", res); err != nil {
		return err
	}
	if st.MeanBatch <= 1 {
		return fmt.Errorf("load-smoke: no coalescing (%.2f rows/batch)", st.MeanBatch)
	}
	fmt.Println("load-smoke ok")
	return nil
}

// accounted fails a load run with a hard failure or with a request
// neither completed nor shed.
func accounted(what string, res serve.LoadResult) error {
	if got := res.Completed + res.Shed; res.Failed > 0 || got != res.Requests {
		return fmt.Errorf("%s: %d hard failures, %d of %d requests unaccounted for",
			what, res.Failed, res.Requests-got, res.Requests)
	}
	return nil
}

// printLoad renders one load-run result.
func printLoad(res serve.LoadResult) {
	fmt.Printf("completed %d/%d (shed %d, failed %d, %d retries) in %v -> %.0f req/s\n",
		res.Completed, res.Requests, res.Shed, res.Failed, res.Retries,
		res.Elapsed.Round(time.Millisecond), res.Throughput)
	fmt.Printf("latency: p50 %v  p99 %v  p999 %v  max %v; SLO violations %d (%.2f%%)\n",
		res.Latency.P50.Round(time.Microsecond), res.Latency.P99.Round(time.Microsecond),
		res.Latency.P999.Round(time.Microsecond), res.Latency.Max.Round(time.Microsecond),
		res.SLOViolations, 100*res.SLOViolationRate)
}

// calibrate derives the activation schema from deterministic
// pseudo-random batches shaped like the model input.
func calibrate(g *nn.Graph) (*nn.QuantSchema, error) {
	samples, err := nn.SyntheticCalibration(g, 4)
	if err != nil {
		return nil, err
	}
	return optimize.Calibrate(g, samples)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vedliot-serve:", err)
	os.Exit(1)
}
