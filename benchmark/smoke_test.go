package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke drives the command itself over all four workloads with
// short windows. It checks what must hold on any host however loaded:
// every reply bitwise correct, the scheduler's accounting closed, no
// goroutine left behind, every end-to-end metric printed. It asserts
// nothing about speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves four workloads in real time; under -short -race the fleet cannot keep up with the open-loop rates")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	seen := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line is not JSON: %v\n%s", err, line)
		}
		wl := workloads[seen]
		seen++
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct %v with %d attempted\n%s", wl.name, res.Correct, res.Attempted, stderr.String())
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics printed, want %d", wl.name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			// Only slo_ok_share may read 0: on a host too slow to meet
			// the limit, as under -race. Negative means not computed.
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || got.Value < 0 || (got.Value == 0 && m.name != "slo_ok_share") {
				t.Errorf("%s: metric %s printed as %+v (present %v), want a positive value in %s", wl.name, m.name, got, ok, m.unit)
			}
		}
	}
	if seen != len(workloads) {
		t.Errorf("%d result lines, want one per workload (%d)", seen, len(workloads))
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "mlp_trickle") {
		t.Errorf("refusal does not list the known workloads: %s", stderr.String())
	}
}
