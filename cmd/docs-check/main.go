// Command docs-check is the documentation gate of the CI docs job: it
// fails (exit 1) when a package lacks a package comment, when any
// exported top-level identifier — function, method, type, or a
// const/var declaration outside a documented block — has no doc
// comment, when an exported top-level name of a checked package has no
// caller, when a Markdown document names an identifier, a test or a
// make target that does not exist, when DESIGN.md grows past its line
// ceiling, or when a CHANGES.md entry breaks its size budget. `go doc` is then guaranteed useful for every public entry
// point of the checked packages, every such entry point is used, and the
// prose cannot outlive the code.
//
// Usage:
//
//	docs-check ./internal/artifact ./internal/cluster ... DESIGN.md README.md
//
// A directory argument is a package directory (not a pattern); test
// files are ignored. A .md argument is scanned for backticked
// `pkg.Name` references outside fenced code blocks: one whose package
// is among the checked directories but that declares no top-level Name
// is reported. Names are exported identifiers; for `pkg.Type.Method`
// only the type is resolved. A backticked `TestX`, `BenchmarkX` or
// `FuzzX` must be declared in some _test.go file of the module (a
// `/subtest` suffix is ignored), and a backticked `make target` must be
// a target of ./Makefile. A .md argument named DESIGN.md may hold at
// most designCeiling lines. ./CHANGES.md is always read: an entry is a
// line starting with its number (`- PR <n>`) and the lines after it up
// to the next bullet, and from number 26 on none may exceed 3 KB. Run it
// from the module root: callers and test names are read from every .go
// file of the module (see parseModule).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docs-check <package dir | doc.md> [...]")
		os.Exit(2)
	}
	problems, err := check(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "docs-check:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docs-check: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docs-check: %d argument(s): packages documented and called, docs name only what exists\n", len(os.Args)-1)
}

// check runs every pass over the package directories and Markdown files
// named in args and returns the problems found, sorted.
func check(args []string) ([]string, error) {
	var problems, docs, dirs []string
	decls := make(map[string]map[string]bool) // package name -> declared top-level names
	for _, arg := range args {
		if strings.HasSuffix(arg, ".md") {
			docs = append(docs, arg)
			continue
		}
		p, err := checkDir(arg, decls)
		if err != nil {
			return nil, err
		}
		problems = append(problems, p...)
		dirs = append(dirs, arg)
	}
	mod, err := parseModule()
	if err != nil {
		return nil, err
	}
	problems = append(problems, mod.checkCallers(dirs)...)
	targets, err := makeTargets("Makefile")
	if err != nil {
		return nil, err
	}
	for _, doc := range docs {
		p, err := checkDoc(doc, decls, mod.tests, targets)
		if err != nil {
			return nil, err
		}
		problems = append(problems, p...)
		if filepath.Base(doc) == "DESIGN.md" {
			p, err := checkCeiling(doc, designCeiling)
			if err != nil {
				return nil, err
			}
			problems = append(problems, p...)
		}
	}
	p, err := checkChanges("CHANGES.md")
	if err != nil {
		return nil, err
	}
	problems = append(problems, p...)
	sort.Strings(problems)
	return problems, nil
}

// checkDir parses one package directory, records its top-level names
// in decls and reports undocumented exported declarations as
// "path: identifier" strings.
func checkDir(dir string, decls map[string]map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		if decls[pkg.Name] == nil {
			decls[pkg.Name] = make(map[string]bool)
		}
		for _, f := range pkg.Files {
			for name := range f.Scope.Objects {
				decls[pkg.Name][name] = true
			}
		}
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		// Deterministic file order.
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			problems = append(problems, checkFile(fset, pkg.Files[name])...)
		}
	}
	return problems, nil
}

// checkFile reports undocumented exported top-level declarations of
// one file.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s has no doc comment", filepath.ToSlash(p.Filename), p.Line, what))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				what := "func " + d.Name.Name
				if d.Recv != nil && len(d.Recv.List) > 0 {
					// Only flag methods on exported receivers; an
					// unexported type's methods are not in go doc.
					if !exportedRecv(d.Recv.List[0].Type) {
						continue
					}
					what = "method " + d.Name.Name
				}
				report(d.Pos(), what)
			}
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil && ts.Comment == nil {
						report(ts.Pos(), "type "+ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A documented block covers its specs; an undocumented
				// block needs per-spec docs for exported names.
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							report(n.Pos(), fmt.Sprintf("%s %s", d.Tok, n.Name))
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedRecv reports whether a method receiver type is exported.
func exportedRecv(expr ast.Expr) bool {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return exportedRecv(t.X)
	case *ast.Ident:
		return t.IsExported()
	case *ast.IndexExpr: // generic receiver
		return exportedRecv(t.X)
	case *ast.IndexListExpr:
		return exportedRecv(t.X)
	}
	return false
}

// codeSpan is one inline code span of Markdown; docRef is a `pkg.Name`
// reference inside one: a lower-case package name not preceded by a
// path or selector, then an exported name. testRef is a test, benchmark
// or fuzz function name, makeRef a make target, and makeRule a rule line
// of a Makefile.
var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	docRef   = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	testRef  = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)`)
	makeRef  = regexp.MustCompile(`(?:^|[^\w-])make ([a-z][\w-]*)`)
	makeRule = regexp.MustCompile(`(?m)^([A-Za-z0-9][\w.-]*):(?:[^=]|$)`)
)

// makeTargets returns the targets a Makefile declares.
func makeTargets(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, m := range makeRule.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets, nil
}

// checkDoc reports every backticked name in a Markdown file, outside
// fenced code blocks, that resolves to nothing: a pkg.Name whose package
// is in decls but declares no Name, a test function no test file
// declares, a make target the Makefile lacks.
func checkDoc(path string, decls map[string]map[string]bool, tests, targets map[string]bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Blank the fenced blocks line for line, so offsets still map to
	// line numbers and a code span may wrap across lines of prose.
	lines := strings.Split(string(data), "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text := strings.Join(lines, "\n")
	var problems []string
	for _, span := range codeSpan.FindAllStringIndex(text, -1) {
		code := text[span[0]+1 : span[1]-1]
		report := func(format string, args ...any) {
			line := strings.Count(text[:span[0]], "\n") + 1
			problems = append(problems, fmt.Sprintf("%s:%d: ", path, line)+fmt.Sprintf(format, args...))
		}
		for _, m := range docRef.FindAllStringSubmatch(code, -1) {
			if names, ok := decls[m[1]]; ok && !names[m[2]] {
				report("`%s.%s` names nothing package %s declares", m[1], m[2], m[1])
			}
		}
		for _, m := range testRef.FindAllStringSubmatch(code, -1) {
			if !tests[m[1]] {
				report("`%s` names no test function of the module", m[1])
			}
		}
		for _, m := range makeRef.FindAllStringSubmatch(code, -1) {
			if !targets[m[1]] {
				report("`make %s` names no Makefile target", m[1])
			}
		}
	}
	return problems, nil
}

// designCeiling is the most lines DESIGN.md may hold: a change that
// adds lines there deletes as many elsewhere in it or raises this
// constant, in plain sight.
const designCeiling = 1533

// checkCeiling reports a Markdown file of more than ceiling lines.
func checkCeiling(path string, ceiling int) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(data), "\n"); n > ceiling {
		return []string{fmt.Sprintf("%s: %d lines, over the %d-line ceiling", path, n, ceiling)}, nil
	}
	return nil, nil
}

// CHANGES.md budget: from entry number budgetFrom on, no entry may take
// more than changesBudget bytes. changesEntry matches an entry's first
// line and captures its number.
const (
	changesBudget = 3 << 10
	budgetFrom    = 26
)

var changesEntry = regexp.MustCompile(`^- PR (\d+)\b`)

// checkChanges reports every entry of a CHANGES.md file numbered
// budgetFrom or later that is over changesBudget bytes. An entry runs
// from its numbered line up to the next line that starts a bullet, or
// the end of the file; its size counts the newlines between its lines.
func checkChanges(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	var problems []string
	for i, l := range lines {
		m := changesEntry.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		size := len(l)
		for _, next := range lines[i+1:] {
			if strings.HasPrefix(next, "- ") {
				break
			}
			size += 1 + len(next)
		}
		if n, _ := strconv.Atoi(m[1]); n >= budgetFrom && size > changesBudget {
			problems = append(problems, fmt.Sprintf("%s:%d: entry %d is %d bytes, over the %d-byte budget", path, i+1, n, size, changesBudget))
		}
	}
	return problems, nil
}
