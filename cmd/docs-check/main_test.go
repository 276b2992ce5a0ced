package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inModuleRoot runs the test from the module root, where docs-check
// reads go.mod, the Makefile and every .go file.
func inModuleRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestCheckFlagsDanglingNames plants one dangling name of each kind the
// doc pass resolves, beside one resolving name of each kind: exactly the
// three planted ones fail.
func TestCheckFlagsDanglingNames(t *testing.T) {
	inModuleRoot(t)
	doc := filepath.Join(t.TempDir(), "planted.md")
	text := "Real: `cluster.Scheduler`, `TestCheckFlagsDanglingNames/sub`, `make docs`.\n" +
		"Planted: `cluster.Planted`, `TestPlanted`, `make planted`.\n" +
		"```\ncluster.Fenced TestFenced make fenced\n```\n"
	if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := check([]string{"./internal/cluster", doc})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"`TestPlanted`", "`cluster.Planted`", "`make planted`"} // sorted
	if len(problems) != len(want) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(want), strings.Join(problems, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) || !strings.Contains(problems[i], "planted.md:2:") {
			t.Errorf("problem %d is %q, want one naming %s on line 2", i, problems[i], w)
		}
	}
}

// TestCheckPassesRealDocs runs the make docs arguments over the real
// tree: DESIGN.md and README.md name only what exists.
func TestCheckPassesRealDocs(t *testing.T) {
	inModuleRoot(t)
	dirs, err := filepath.Glob("./internal/*")
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"."}, dirs...)
	args = append(args, "./internal/inference/ir", "./internal/rvbackend/difftest", "./internal/tensor/cpu", "DESIGN.md", "README.md")
	problems, err := check(args)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCheckChangesBudget plants a CHANGES.md whose entry 32 is 3,100
// bytes beside entries the budget passes: one of exactly 3,072 bytes,
// one whose table rows keep it under, and an older one over it, which
// predates the budget. Only the planted one fails.
func TestCheckChangesBudget(t *testing.T) {
	entry := func(head string, size int) string { return head + strings.Repeat("x", size-len(head)) }
	text := strings.Join([]string{
		entry("PR 20: [simplicity] unbulleted, before the budget", 5000),
		entry("- PR 25 (perf): over, but before the budget", 4000),
		entry("- PR 30 (simplicity): exactly the budget", 3072),
		entry("- PR 31 (simplicity): with a table", 1000),
		"",
		"| a | b |",
		"|---|---|",
		"- A follow-up: a bullet of its own, unnumbered",
		entry("- PR 32 (simplicity): planted", 3100),
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "CHANGES.md")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkChanges(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "CHANGES.md:9: entry 32 is 3100 bytes") {
		t.Errorf("got %q, want the planted entry 32 on line 9 alone", problems)
	}
}

// TestCheckDesignCeiling plants a DESIGN.md at the ceiling, which
// passes, and one a line over it, which fails.
func TestCheckDesignCeiling(t *testing.T) {
	inModuleRoot(t)
	path := filepath.Join(t.TempDir(), "DESIGN.md")
	for _, extra := range []int{0, 1} {
		if err := os.WriteFile(path, []byte(strings.Repeat("line\n", designCeiling+extra)), 0o644); err != nil {
			t.Fatal(err)
		}
		problems, err := check([]string{path})
		if err != nil {
			t.Fatal(err)
		}
		if fail := len(problems) == 1 && strings.Contains(problems[0], "over the"); fail != (extra == 1) || len(problems) > extra {
			t.Errorf("%d lines: problems %q", designCeiling+extra, problems)
		}
	}
}
