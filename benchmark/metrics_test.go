package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the command prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds%numWindows != 0 {
		t.Errorf("run_seconds %d does not divide into %d whole-second windows", spec.RunSeconds, numWindows)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, want %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := spec.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, got, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why has %d characters, the driver allows 200", wl.name, len(wl.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics listed, want %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d is %+v, want %s in %s, %s is better", kind, i, g, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s: bound %v, want %v (bounded: %v)", m.name, g.Bound, m.bound, bounded)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
