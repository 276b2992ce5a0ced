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

// checkCallers reports every exported top-level func, type, var or
// const of the checked package directories that no other package of the
// module selects as `pkg.Name` and that its own non-test files never
// mention. The module is the one whose go.mod is in the working
// directory, and every .go file under it counts as a caller: commands,
// examples, benchmarks, test files. Names are matched without type
// information, so a collision (a local variable shadowing an import, a
// field sharing an export's name) can hide a finding but never invent
// one.
func checkCallers(dirs []string) ([]string, error) {
	module, err := modulePath()
	if err != nil {
		return nil, err
	}
	type file struct {
		pkg  string // import path
		test bool
		ast  *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgName := make(map[string]string) // import path -> package name
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
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		test := strings.HasSuffix(p, "_test.go")
		files = append(files, file{pkg, test, f})
		if !test {
			pkgName[pkg] = f.Name.Name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Selections of another package's names, and every identifier of a
	// package's own non-test files.
	selected := make(map[string]bool) // "import/path.Name"
	mentions := make(map[string]map[string]int)
	for _, f := range files {
		local := make(map[string]string) // import name in this file -> import path
		var dots []string                // dot-imported paths: their names appear bare
		for _, imp := range f.ast.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name, ok := pkgName[ip]
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
		checked[path.Join(module, filepath.ToSlash(filepath.Clean(dir)))] = true
	}
	var problems []string
	for _, f := range files {
		if !checked[f.pkg] || f.test {
			continue
		}
		// The file scope holds the package-level funcs, types, vars and
		// consts; methods are not top-level names. The declaration is
		// one mention of its own.
		for name, obj := range f.ast.Scope.Objects {
			if ast.IsExported(name) && !selected[f.pkg+"."+name] && mentions[f.pkg][name] < 2 {
				pos := fset.Position(obj.Pos())
				problems = append(problems, fmt.Sprintf("%s:%d: exported %s has no caller outside its package's tests", filepath.ToSlash(pos.Filename), pos.Line, name))
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
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
