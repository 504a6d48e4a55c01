package idl

import (
	"strings"
	"testing"
)

const sample = `
// The Spring file system interfaces.
module fs {
    typedef sequence<octet> bytes;

    interface file {
        long long size();
        long read(in long long offset, in long count, out bytes data);
        long write(in long long offset, in bytes data);
    };

    interface versioned {
        unsigned long version();
    };

    /* richer semantics via subtyping (§6.3) */
    interface cacheable_file : file, versioned {
        void flush();
    };
};
`

func parseSample(t *testing.T) *File {
	t.Helper()
	f, err := Parse("sample.idl", sample)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseStructure(t *testing.T) {
	f := parseSample(t)
	if len(f.Modules) != 1 || f.Modules[0].Name != "fs" {
		t.Fatalf("modules = %+v", f.Modules)
	}
	m := f.Modules[0]
	if len(m.Typedefs) != 1 || m.Typedefs[0].Name != "bytes" {
		t.Fatalf("typedefs = %+v", m.Typedefs)
	}
	if len(m.Interfaces) != 3 {
		t.Fatalf("interfaces = %d", len(m.Interfaces))
	}
	file := m.Interfaces[0]
	if file.QName() != "fs.file" || len(file.Ops) != 3 {
		t.Fatalf("file = %+v", file)
	}
	read := file.Ops[1]
	if read.Name != "read" || len(read.Params) != 3 {
		t.Fatalf("read = %+v", read)
	}
	if read.Params[0].Mode != ModeIn || read.Params[2].Mode != ModeOut {
		t.Fatalf("read modes wrong: %v %v", read.Params[0].Mode, read.Params[2].Mode)
	}
	if read.Params[2].Type.resolve().Kind != KindSequence {
		t.Fatalf("typedef not resolved: %v", read.Params[2].Type)
	}
}

func TestFlattening(t *testing.T) {
	f := parseSample(t)
	cf := f.Modules[0].Interfaces[2]
	if cf.Name != "cacheable_file" {
		t.Fatal("wrong interface order")
	}
	var names []string
	for _, op := range cf.Flat {
		names = append(names, op.Name)
	}
	want := []string{"size", "read", "write", "version", "flush"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("flat = %v, want %v", names, want)
	}
	// Inherited ops keep their declaring owner.
	if cf.Flat[0].Owner.Name != "file" || cf.Flat[4].Owner.Name != "cacheable_file" {
		t.Fatalf("owners wrong: %s %s", cf.Flat[0].Owner.Name, cf.Flat[4].Owner.Name)
	}
}

// diamond reaches base from bottom along two paths.
const diamond = `
module d {
    interface base { void ping(); };
    interface left : base { void l(); };
    interface right : base { void r(); };
    interface bottom : left, right { void b(); };
};
`

func TestDiamondInheritance(t *testing.T) {
	f, err := Parse("d.idl", diamond)
	if err != nil {
		t.Fatal(err)
	}
	bottom := f.Modules[0].Interfaces[3]
	var names []string
	for _, op := range bottom.Flat {
		names = append(names, op.Name)
	}
	// ping appears once despite two paths.
	if strings.Join(names, ",") != "ping,l,r,b" {
		t.Fatalf("flat = %v", names)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unterminated comment", "module m { /* ", "unterminated"},
		{"bad char", "module m { @ };", "unexpected character"},
		{"missing semi", "module m { interface i { void f(); } }", "';' after interface"},
		{"undefined base", "module m { interface i : ghost { }; };", "undefined"},
		{"undefined type", "module m { interface i { void f(in widget w); }; };", "undefined type"},
		{"op name collision", `
module m {
  interface a { void f(); };
  interface b { void f(); };
  interface c : a, b { };
};`, "two operations named"},
		{"self inheritance", "module m { interface i : i { }; };", "inherits from itself"},
		{"cycle", `
module m {
  interface a : b { };
  interface b : a { };
};`, "inheritance cycle"},
		{"copy non-object", "module m { interface i { void f(copy long x); }; };", "copy mode requires an object type"},
		{"dup param", "module m { interface i { void f(in long x, in long x); }; };", "duplicate parameter"},
		{"oneway with result", "module m { interface i { oneway long f(); }; };", "cannot return"},
		{"oneway with out", "module m { interface i { oneway void f(out long x); }; };", "cannot return"},
		{"dup interface", "module m { interface i { }; interface i { }; };", "duplicate name"},
		{"dup typedef", "module m { typedef long a; typedef long a; };", "duplicate name"},
		{"reserved word name", "module m { interface interface { }; };", "reserved word"},
		{"void param", "module m { interface i { void f(in void v); }; };", "void is only valid"},
		{"unsigned junk", "module m { interface i { unsigned string f(); }; };", "expected short or long"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.name+".idl", c.src)
			if err == nil {
				t.Fatalf("parse succeeded, want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("p.idl", "module m {\n  interface i {\n    void f(bad long x);\n  };\n};")
	if err == nil {
		t.Fatal("want error")
	}
	e, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if e.Line != 3 {
		t.Fatalf("line = %d, want 3: %v", e.Line, e)
	}
}

func TestGoName(t *testing.T) {
	cases := map[string]string{
		"file":           "File",
		"file_system":    "FileSystem",
		"cacheable_file": "CacheableFile",
		"a_b_c":          "ABC",
	}
	for in, want := range cases {
		if got := GoName(in); got != want {
			t.Errorf("GoName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOpNumStable(t *testing.T) {
	if OpNumOf("read") != OpNumOf("read") {
		t.Fatal("hash not deterministic")
	}
	if OpNumOf("read") == OpNumOf("write") {
		t.Fatal("suspicious collision")
	}
}

func TestGenerateCompilesShape(t *testing.T) {
	f := parseSample(t)
	code, err := Generate(f, "fsgen")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package fsgen",
		`const FileType core.TypeID = "fs.file"`,
		"type File struct",
		"func (c File) Read(offset int64, count int32) (int32, []byte, error)",
		"type FileServer interface",
		"func NewFileSkeleton(env *core.Env, impl FileServer) stubs.Skeleton",
		"type CacheableFileServer interface",
		"FileServer\n\tVersionedServer",
		"func NarrowCacheableFile(obj *core.Object) (CacheableFile, bool)",
		"core.MustRegisterType(CacheableFileType, FileType, VersionedType)",
		// Inherited op callable directly on the subtype's client view.
		"func (c CacheableFile) Read(offset int64, count int32) (int32, []byte, error)",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateTypeMapping(t *testing.T) {
	src := `
module tm {
    interface all {
        void f(in boolean a, in octet b, in short c, in long d,
               in long long e, in unsigned short f, in unsigned long g,
               in unsigned long long h, in float i, in double j,
               in string k, in sequence<long> l, in sequence<sequence<string>> m);
    };
};
`
	f, err := Parse("tm.idl", src)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f, "tmgen")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "a bool, b_ byte, c_ int16, d int32, e int64, f uint16, g uint32, h uint64, i float32, j float64, k string, l []int32, m [][]string") {
		t.Fatalf("type mapping wrong:\n%s", code)
	}
}

func TestAttributes(t *testing.T) {
	src := `
module at {
    interface clock {
        readonly attribute unsigned long long now;
        attribute string zone;
    };
};
`
	f, err := Parse("at.idl", src)
	if err != nil {
		t.Fatal(err)
	}
	clock := f.Modules[0].Interfaces[0]
	var names []string
	for _, op := range clock.Flat {
		names = append(names, op.Name)
	}
	if strings.Join(names, ",") != "_get_now,_get_zone,_set_zone" {
		t.Fatalf("desugared ops = %v", names)
	}
	code, err := Generate(f, "atgen")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"func (c Clock) Now() (uint64, error)",
		"func (c Clock) Zone() (string, error)",
		"func (c Clock) SetZone(zone string) error",
		"Now() (uint64, error)", // server interface
		"SetZone(zone string) error",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestObjectType(t *testing.T) {
	src := `
module ob {
    interface registry {
        void bind(in string name, in Object obj);
        Object resolve(in string name);
        void stash(copy Object obj);
    };
};
`
	f, err := Parse("ob.idl", src)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f, "obgen")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"func (c Registry) Bind(name string, obj *core.Object) error",
		"func (c Registry) Resolve(name string) (*core.Object, error)",
		"obj.Marshal(b)",     // in: move
		"obj.MarshalCopy(b)", // copy: retain
		"core.Unmarshal(c.Obj.Env, core.GenericMT, b)", // result
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestAttributeErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"readonly without attribute", "module m { interface i { readonly long x; }; };", `"attribute"`},
		{"attribute missing semi", "module m { interface i { attribute long x } };", "';'"},
		{"attribute keyword name", "module m { interface i { attribute long oneway; }; };", "reserved word"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.name+".idl", c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestGenerateObjectParams(t *testing.T) {
	src := `
module op {
    interface thing { void poke(); };
    interface holder {
        void put(in thing t);
        void lend(copy thing t);
        thing get();
    };
};
`
	f, err := Parse("op.idl", src)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f, "opgen")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"t.Obj.Marshal(b)",                      // in: move
		"t.Obj.MarshalCopy(b)",                  // copy: retain
		"core.Unmarshal(c.Obj.Env, ThingMT, b)", // result
		"func (c Holder) Get() (Thing, error)",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q\n----\n%s", want, code)
		}
	}
}
