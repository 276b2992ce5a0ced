// Command benchmark measures the served fleet through its front door.
// It deploys a signed .vedz artifact onto an in-process uRECS fleet,
// serves it with serve.Listen on a loopback socket, drives it over two
// client connections with one of four workloads, checks every reply
// bitwise against a reference executable and prints each metric by name
// with its unit. README.md explains the workloads, the metrics and how
// they interact.
//
// Usage:
//
//	go run ./benchmark -seed 7                      # all workloads, gated run
//	go run ./benchmark -seed 7 -trace 1             # all workloads, per-layer run
//	go run ./benchmark -workload mlp_flood -seed 7  # one workload
//	go run ./benchmark -repeat 5                    # spread of every metric
//	go run ./benchmark -smoke                       # seconds, not minutes
//
// The last line of a single-workload run is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 1 when
// a reply was wrong, the scheduler's accounting did not add up or a
// goroutine leaked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters, so the
// package's own test can drive the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "seed for the arrival schedule and the request rows")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload: six windows, or six replays with -trace 1 (default 30, with -smoke 1.2)")
	trace := fs.Int("trace", 0, "0: gated run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := fs.Int("repeat", 0, "run this many full gated sets and report the spread of every metric against its bound")
	smoke := fs.Bool("smoke", false, "short windows, one cold set-up, no ladder")
	outDir := fs.String("out", "benchmark/out", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := runConfig{seed: *seed, warm: 3 * time.Second, setups: 25, outDir: *outDir}
	if *smoke {
		if *trace != 0 {
			fmt.Fprintln(stderr, "benchmark: -smoke has no ladder; drop -trace")
			return 2
		}
		cfg.warm, cfg.setups = 250*time.Millisecond, 1
	}
	switch {
	case *seconds > 0:
		cfg.measured = time.Duration(*seconds * float64(time.Second))
	case *smoke:
		cfg.measured = 1200 * time.Millisecond
	default:
		cfg.measured = 30 * time.Second
	}
	todo := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		todo = []workload{wl}
	}

	fmt.Fprintf(stdout, "# host: %s\n", hostSummary())
	if *repeat > 0 {
		return repeatSets(todo, cfg, *repeat, stdout, stderr)
	}
	runOne := runGated
	if *trace != 0 {
		runOne = runTraced
	}
	code := 0
	for _, wl := range todo {
		res, err := runOne(wl, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
			return 1
		}
		if !res.print(stdout, stderr) {
			code = 1
		}
	}
	return code
}

// print writes the human-readable report, then the JSON line the driver
// reads, and reports whether the run was sound.
func (r *result) print(stdout, stderr io.Writer) bool {
	fmt.Fprintf(stdout, "# workload: %s\n", r.workload)
	for _, line := range r.lines {
		fmt.Fprintln(stdout, line)
	}
	for _, why := range r.incorrect {
		fmt.Fprintf(stderr, "benchmark: %s: INCORRECT: %s\n", r.workload, why)
	}
	for _, why := range r.flagged {
		fmt.Fprintf(stderr, "benchmark: %s: FLAGGED: %s\n", r.workload, why)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if v, ok := r.metrics[m.name]; ok {
			out.Metrics[m.name] = value{v, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", r.workload, err)
		return false
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return len(r.incorrect) == 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}
