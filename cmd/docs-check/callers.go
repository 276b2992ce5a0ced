package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// file is one parsed .go file of the module.
type file struct {
	pkg  string // import path
	test bool
	ast  *ast.File
}

// module is every .go file of the module whose go.mod is in the working
// directory, parsed once for the caller pass and the doc pass.
type module struct {
	path    string
	fset    *token.FileSet
	files   []file
	pkgName map[string]string // import path -> package name
	tests   map[string]bool   // top-level funcs of the test files
}

// parseModule parses every .go file under the working directory,
// skipping hidden and testdata directories.
func parseModule() (*module, error) {
	modPath, err := modulePath()
	if err != nil {
		return nil, err
	}
	m := &module{path: modPath, fset: token.NewFileSet(), pkgName: make(map[string]string), tests: make(map[string]bool)}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := path.Join(modPath, filepath.ToSlash(filepath.Dir(p)))
		test := strings.HasSuffix(p, "_test.go")
		m.files = append(m.files, file{pkg, test, f})
		if !test {
			m.pkgName[pkg] = f.Name.Name
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && test && fn.Recv == nil {
				m.tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	return m, err
}

// checkCallers reports every exported top-level func, type, var or
// const of the checked package directories that no other package of the
// module selects as `pkg.Name` and that its own non-test files never
// mention. Every .go file of the module counts as a caller: commands,
// examples, benchmarks, test files. Names are matched without type
// information, so a collision (a local variable shadowing an import, a
// field sharing an export's name) can hide a finding but never invent
// one.
func (m *module) checkCallers(dirs []string) []string {
	// Selections of another package's names, and every identifier of a
	// package's own non-test files.
	selected := make(map[string]bool) // "import/path.Name"
	mentions := make(map[string]map[string]int)
	for _, f := range m.files {
		local := make(map[string]string) // import name in this file -> import path
		var dots []string                // dot-imported paths: their names appear bare
		for _, imp := range f.ast.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name, ok := m.pkgName[ip]
			if !ok || ip == f.pkg {
				continue
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				dots = append(dots, ip)
			}
			local[name] = ip
		}
		if !f.test && mentions[f.pkg] == nil {
			mentions[f.pkg] = make(map[string]int)
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && local[x.Name] != "" {
					selected[local[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !f.test {
					mentions[f.pkg][n.Name]++
				}
				for _, ip := range dots {
					selected[ip+"."+n.Name] = true
				}
			}
			return true
		})
	}

	checked := make(map[string]bool)
	for _, dir := range dirs {
		checked[path.Join(m.path, filepath.ToSlash(filepath.Clean(dir)))] = true
	}
	var problems []string
	for _, f := range m.files {
		if !checked[f.pkg] || f.test {
			continue
		}
		// The file scope holds the package-level funcs, types, vars and
		// consts; methods are not top-level names. The declaration is
		// one mention of its own.
		for name, obj := range f.ast.Scope.Objects {
			if ast.IsExported(name) && !selected[f.pkg+"."+name] && mentions[f.pkg][name] < 2 {
				pos := m.fset.Position(obj.Pos())
				problems = append(problems, fmt.Sprintf("%s:%d: exported %s has no caller outside its package's tests", filepath.ToSlash(pos.Filename), pos.Line, name))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// modulePath reads the module path from ./go.mod.
func modulePath() (string, error) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	return "", fmt.Errorf("go.mod declares no module")
}
