package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestEveryFlagIsUsed keeps the daemon and the shell free of knobs that
// nothing turns: each flag springfsd or fsh defines must be passed by a
// Makefile recipe, a file under benchmark/ or a _test.go file. A setting
// that none of them varies is a constant in the code, not a flag. Only the
// addresses and paths a real deployment must choose are exempt.
func TestEveryFlagIsUsed(t *testing.T) {
	// skip holds the exempt names, and each name once it is listed (both
	// commands define some of the same flags).
	skip := map[string]bool{"addr": true, "server": true, "telemetry": true, "wal": true, "snapshot": true}
	root := filepath.Join("..", "..")

	var names []string
	for _, file := range []string{"main.go", filepath.Join("..", "fsh", "main.go")} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !skip[name] {
					skip[name] = true
					names = append(names, name)
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatal("found no flag definitions in springfsd or fsh")
	}

	// Where a flag may be passed: the recipes of the Makefile (its
	// tab-indented lines), every file under benchmark/ and every test file.
	var corpus strings.Builder
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(line, "\t") {
			corpus.WriteString(line + "\n")
		}
	}
	self, err := filepath.Abs("flags_test.go")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if abs, _ := filepath.Abs(path); abs == self {
			return nil
		}
		if strings.HasPrefix(rel, "benchmark"+string(filepath.Separator)) || strings.HasSuffix(rel, "_test.go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			corpus.Write(b)
			corpus.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	text := corpus.String()
	for _, name := range names {
		passed := regexp.MustCompile(`(?m)(^|[\s"'` + "`" + `(])-` + regexp.QuoteMeta(name) + `([\s"'` + "`" + `=]|$)`)
		if !passed.MatchString(text) {
			t.Errorf("flag -%s is passed by no Makefile recipe, no file under benchmark/ and no test: make it a constant, or exercise it", name)
		}
	}
}
