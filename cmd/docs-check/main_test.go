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
