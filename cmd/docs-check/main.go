// Command docs-check is the documentation gate of the CI docs job: it
// fails (exit 1) when a package lacks a package comment, when any
// exported top-level identifier — function, method, type, or a
// const/var declaration outside a documented block — has no doc
// comment, or when a Markdown document names an identifier that does
// not exist. `go doc` is then guaranteed useful for every public entry
// point of the checked packages, and the prose cannot outlive the code.
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
// only the type is resolved.
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
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docs-check <package dir | doc.md> [...]")
		os.Exit(2)
	}
	var problems, docs []string
	decls := make(map[string]map[string]bool) // package name -> declared top-level names
	for _, arg := range os.Args[1:] {
		if strings.HasSuffix(arg, ".md") {
			docs = append(docs, arg)
			continue
		}
		p, err := checkDir(arg, decls)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docs-check:", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	for _, doc := range docs {
		p, err := checkDoc(doc, decls)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docs-check:", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docs-check: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docs-check: %d package(s) fully documented, %d doc(s) name only declared identifiers\n",
		len(os.Args[1:])-len(docs), len(docs))
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
// path or selector, then an exported name.
var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	docRef   = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// checkDoc reports every backticked pkg.Name in a Markdown file, outside
// fenced code blocks, whose package is in decls but declares no Name.
func checkDoc(path string, decls map[string]map[string]bool) ([]string, error) {
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
		for _, m := range docRef.FindAllStringSubmatch(text[span[0]+1:span[1]-1], -1) {
			if names, ok := decls[m[1]]; ok && !names[m[2]] {
				line := strings.Count(text[:span[0]], "\n") + 1
				problems = append(problems, fmt.Sprintf("%s:%d: `%s.%s` names nothing package %s declares", path, line, m[1], m[2], m[1]))
			}
		}
	}
	return problems, nil
}
