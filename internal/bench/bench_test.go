package bench

import (
	"strings"
	"testing"

	"vedliot/internal/tensor"
)

// TestAllExperimentsPassChecks runs every registered experiment and
// requires every embedded shape assertion to hold — the "paper shape
// reproduced" integration test. Under -short the training-bound
// experiments run at reduced iteration counts (see fidelity.go); every
// experiment and every check still executes.
func TestAllExperimentsPassChecks(t *testing.T) {
	if testing.Short() {
		quick = true
		defer func() { quick = false }()
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if failed := rep.Failed(); len(failed) > 0 {
				t.Errorf("%s: failed checks: %v\n%s", e.ID, failed, rep)
			}
			if len(rep.Lines) == 0 {
				t.Errorf("%s: empty report", e.ID)
			}
		})
	}
}

func TestRegistryUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("fig3"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("found nonexistent experiment")
	}
}

func TestReportRendering(t *testing.T) {
	r := newReport("title")
	r.linef("row %d", 1)
	r.check("good", true)
	r.check("bad", false)
	s := r.String()
	for _, want := range []string{"== title ==", "row 1", "[PASS] good", "[FAIL] bad"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	if f := r.Failed(); len(f) != 1 || f[0] != "bad" {
		t.Errorf("Failed() = %v", f)
	}
}

// TestTop1Agreement holds the one top-1 helper to both of its callers'
// rules: the riscv study asks for the same class (tolerance 0), the
// quantized study lets a flip inside the reference's own margin agree.
func TestTop1Agreement(t *testing.T) {
	want := tensor.MustFromSlice([]float32{0.5, 0.3, 0.2, 0.1, 0.1, 0.8, 0.4, 0.4, 0.2}, 3, 3)
	got := tensor.MustFromSlice([]float32{0.3, 0.5, 0.2, 0.1, 0.1, 0.8, 0.4, 0.4, 0.2}, 3, 3)
	for _, c := range []struct {
		tol   float64
		agree int
	}{{0, 2}, {0.1, 2}, {0.25, 3}} {
		if agree, rows := top1Agreement(want, got, c.tol); agree != c.agree || rows != 3 {
			t.Errorf("tolerance %g: %d of %d rows agree, want %d of 3", c.tol, agree, rows, c.agree)
		}
	}
	if agree, rows := top1Agreement(want, tensor.MustFromSlice(make([]float32, 6), 2, 3), 1); agree != 0 || rows != 3 {
		t.Errorf("outputs of different sizes: %d of %d rows agree, want 0 of 3", agree, rows)
	}
}
