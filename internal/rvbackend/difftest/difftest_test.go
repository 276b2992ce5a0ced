package difftest

import (
	"fmt"
	"testing"
)

// shortCorpus is the seed-pinned corpus that must pass even in -short
// CI runs; fullExtra extends it for full (nightly) runs.
const (
	shortCorpus = 50
	fullExtra   = 150
)

// TestRandomGraphParity generates seed-pinned random graphs and requires
// bit-exact agreement between the native INT8 engine and both firmware
// variants on every one.
func TestRandomGraphParity(t *testing.T) {
	n := shortCorpus
	if !testing.Short() {
		n += fullExtra
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			g := generate(seed)
			if err := check(g, 2, int(seed)+1000); err != nil {
				t.Fatalf("seed %d (%d nodes): %v", seed, len(g.Nodes), err)
			}
		})
	}
}

// TestGenerateDeterministic pins the generator contract the corpus
// relies on: the same seed always yields the same graph.
func TestGenerateDeterministic(t *testing.T) {
	a, b := generate(7), generate(7)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i].Name != b.Nodes[i].Name || a.Nodes[i].Op != b.Nodes[i].Op {
			t.Fatalf("node %d differs: %s/%s vs %s/%s",
				i, a.Nodes[i].Name, a.Nodes[i].Op, b.Nodes[i].Name, b.Nodes[i].Op)
		}
	}
}
