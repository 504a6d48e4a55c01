package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoDeadExports fails on a package-level exported const, var, func or
// type, declared in a non-test, non-generated file under internal/, that
// nothing in the repository's .go files refers to — tests and benchmark/
// included. A reference from the declaring package is a bare identifier; one
// from another package is a selector on that package's import. The check
// reads syntax only (go/parser), so it is a little lenient: a local name or
// a composite-literal key that shares the name counts as a use.
func TestNoDeadExports(t *testing.T) {
	type ident struct{ pkg, name string }
	type goFile struct {
		name string
		dir  string // import path of the directory
		f    *ast.File
	}
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{name: p, dir: path.Join("repro", filepath.ToSlash(filepath.Dir(p))), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[ident]string{} // → the file declaring it
	decl := map[*ast.Ident]bool{}  // the declaring names themselves
	for _, gf := range files {
		if !strings.HasPrefix(gf.name, "internal"+string(filepath.Separator)) ||
			strings.HasSuffix(gf.name, "_test.go") || ast.IsGenerated(gf.f) {
			continue
		}
		for _, d := range gf.f.Decls {
			var names []*ast.Ident
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.ValueSpec:
						names = append(names, sp.Names...)
					case *ast.TypeSpec:
						names = append(names, sp.Name)
					}
				}
			}
			for _, n := range names {
				if n.IsExported() {
					declared[ident{gf.dir, n.Name}] = gf.name
					decl[n] = true
				}
			}
		}
	}

	used := map[ident]bool{}
	for _, gf := range files {
		imports := map[string]string{} // local name → import path
		for _, imp := range gf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		// An external test package (package x_test) is another package.
		own := !strings.HasSuffix(gf.f.Name.Name, "_test")
		skip := map[*ast.Ident]bool{} // names that declare, not refer
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					skip[n.Name] = true
				}
			case *ast.Field:
				for _, name := range n.Names {
					skip[name] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[ident{p, n.Sel.Name}] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false // Sel names a field or method, not a package-level identifier
			case *ast.Ident:
				if own && !skip[n] && !decl[n] {
					used[ident{gf.dir, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(gf.f, visit)
	}

	var dead []string
	for id, file := range declared {
		if !used[id] {
			dead = append(dead, file+": "+path.Base(id.pkg)+"."+id.name)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s is exported and nothing uses it", d)
	}
}
