package idl

import (
	"go/format"
	"strings"
	"testing"
)

const structSample = `
module sx {
    enum color { red, green, blue };

    struct point {
        double x;
        double y;
    };

    struct shape {
        string name;
        color tint;
        sequence<point> outline;
    };

    interface canvas {
        void draw(in shape s);
        shape hit_test(in point p);
        color background();
    };
};
`

func TestParseStructEnum(t *testing.T) {
	f, err := Parse("sx.idl", structSample)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Modules[0]
	if len(m.Enums) != 1 || m.Enums[0].Name != "color" || len(m.Enums[0].Members) != 3 {
		t.Fatalf("enums = %+v", m.Enums)
	}
	if len(m.Structs) != 2 {
		t.Fatalf("structs = %d", len(m.Structs))
	}
	shape := m.Structs[1]
	if shape.Name != "shape" || len(shape.Fields) != 3 {
		t.Fatalf("shape = %+v", shape)
	}
	// Field types resolve: tint → enum, outline → sequence<struct>.
	if shape.Fields[1].Type.resolve().Enum == nil {
		t.Fatal("tint did not resolve to the enum")
	}
	if shape.Fields[2].Type.resolve().Elem.resolve().Struct == nil {
		t.Fatal("outline element did not resolve to the struct")
	}
}

func TestGenerateStructEnum(t *testing.T) {
	f, err := Parse("sx.idl", structSample)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f, "sxgen")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"type Color uint32",
		"ColorRed Color = iota",
		"func (v Color) String() string",
		"type Point struct",
		"type Shape struct",
		"Tint Color",
		"Outline []Point",
		"func writeShape(b *buffer.Buffer, v Shape) error",
		"func readShape(b *buffer.Buffer, borrow bool) (Shape, error)",
		"func (c Canvas) Draw(s Shape) error",
		"func (c Canvas) HitTest(p Point) (Shape, error)",
		"func (c Canvas) Background() (Color, error)",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	if _, err := format.Source([]byte(code)); err != nil {
		t.Fatalf("generated code does not format: %v\n----\n%s", err, code)
	}
}

func TestStructErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"empty struct", "module m { struct s { }; };", "no fields"},
		{"dup field", "module m { struct s { long a; long a; }; };", "duplicate field"},
		{"object field", `
module m {
  interface i { void f(); };
  struct s { i ref; };
};`, "object references are not allowed"},
		{"generic object field", "module m { struct s { Object o; }; };", "object references are not allowed"},
		{"recursive", "module m { struct s { s again; }; };", "recursive struct"},
		{"mutual recursion", `
module m {
  struct a { b x; };
  struct b { a y; };
};`, "recursive struct"},
		{"dup enum member", "module m { enum e { a, a }; };", "duplicate member"},
		{"name clash", "module m { struct x { long a; }; enum x { b }; };", "duplicate name"},
		{"undefined field type", "module m { struct s { widget w; }; };", "undefined type"},
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

func TestStructInSequenceNonRecursive(t *testing.T) {
	// A struct containing a sequence of itself is still recursive.
	_, err := Parse("r.idl", "module m { struct s { sequence<s> kids; }; };")
	if err == nil || !strings.Contains(err.Error(), "recursive struct") {
		t.Fatalf("err = %v", err)
	}
	// But two structs where one embeds a sequence of the other is fine.
	if _, err := Parse("ok.idl", `
module m {
  struct leaf { long v; };
  struct tree { sequence<leaf> leaves; };
};`); err != nil {
		t.Fatal(err)
	}
}
