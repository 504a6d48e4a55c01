package idl

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Go code generation.
//
// Operation numbers in generated code are FNV-32a hashes of the operation
// name rather than positional indices. Positions are not stable under
// multiple inheritance (a base's operation sits at different offsets in
// different subtypes' flattened tables), but a client only ever holds a
// statically typed stub while the server dispatches for its dynamic type —
// name-derived numbers make both sides agree without negotiation. Name
// collisions within one interface's flattened table are rejected at
// generation time (hash collisions across distinct names are, too).

// OpNumOf computes the wire operation number generated code uses.
func OpNumOf(name string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return h.Sum32()
}

// GoName converts an IDL identifier (file_system) to an exported Go name
// (FileSystem).
func GoName(s string) string {
	var b strings.Builder
	up := true
	for _, r := range s {
		if r == '_' {
			up = true
			continue
		}
		if up {
			b.WriteRune(r - ('a' - 'A'))
			up = false
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goLocal converts an IDL identifier to an unexported Go name, avoiding
// collisions with the generator's own locals.
func goLocal(s string) string {
	n := GoName(s)
	out := strings.ToLower(n[:1]) + n[1:]
	switch out {
	case "b", "err", "impl", "op", "args", "results", "env", "c", "ret", "dst":
		return out + "_"
	}
	return out
}

// generator accumulates output.
type generator struct {
	b   strings.Builder
	tmp int
}

func (g *generator) printf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

func (g *generator) temp(prefix string) string {
	g.tmp++
	return fmt.Sprintf("%s%d", prefix, g.tmp)
}

// goType maps an IDL type to its Go representation.
func goType(t *Type) string {
	r := t.resolve()
	switch r.Kind {
	case KindBool:
		return "bool"
	case KindOctet:
		return "byte"
	case KindShort:
		return "int16"
	case KindLong:
		return "int32"
	case KindLongLong:
		return "int64"
	case KindUShort:
		return "uint16"
	case KindULong:
		return "uint32"
	case KindULongLong:
		return "uint64"
	case KindFloat:
		return "float32"
	case KindDouble:
		return "float64"
	case KindString:
		return "string"
	case KindSequence:
		if t.isOctetSeq() {
			return "[]byte"
		}
		return "[]" + goType(r.Elem)
	case KindObject:
		return "*core.Object"
	case KindNamed:
		if r.Iface != nil {
			return GoName(r.Iface.Name)
		}
		if r.Struct != nil {
			return GoName(r.Struct.Name)
		}
		if r.Enum != nil {
			return GoName(r.Enum.Name)
		}
	}
	return "any /* BUG: unmapped " + t.String() + " */"
}

func (t *Type) isOctetSeq() bool {
	r := t.resolve()
	return r.Kind == KindSequence && r.Elem.resolve().Kind == KindOctet
}

// zero returns the Go zero value expression for a type.
func zero(t *Type) string {
	r := t.resolve()
	switch r.Kind {
	case KindBool:
		return "false"
	case KindString:
		return `""`
	case KindSequence, KindObject:
		return "nil"
	case KindNamed:
		if r.Iface != nil {
			return GoName(r.Iface.Name) + "{}"
		}
		if r.Struct != nil {
			return GoName(r.Struct.Name) + "{}"
		}
	}
	return "0"
}

// emitWrite generates statements marshalling expr (of IDL type t) into b.
// consume selects move vs copy semantics for object types.
func (g *generator) emitWrite(indent, buf, expr string, t *Type, consume bool) {
	r := t.resolve()
	switch r.Kind {
	case KindBool:
		g.printf("%s%s.WriteBool(%s)\n", indent, buf, expr)
	case KindOctet:
		g.printf("%s%s.WriteByte(%s)\n", indent, buf, expr)
	case KindShort:
		g.printf("%s%s.WriteInt32(int32(%s))\n", indent, buf, expr)
	case KindLong:
		g.printf("%s%s.WriteInt32(%s)\n", indent, buf, expr)
	case KindLongLong:
		g.printf("%s%s.WriteInt64(%s)\n", indent, buf, expr)
	case KindUShort:
		g.printf("%s%s.WriteUint32(uint32(%s))\n", indent, buf, expr)
	case KindULong:
		g.printf("%s%s.WriteUint32(%s)\n", indent, buf, expr)
	case KindULongLong:
		g.printf("%s%s.WriteUint64(%s)\n", indent, buf, expr)
	case KindFloat:
		g.printf("%s%s.WriteFloat32(%s)\n", indent, buf, expr)
	case KindDouble:
		g.printf("%s%s.WriteFloat64(%s)\n", indent, buf, expr)
	case KindString:
		g.printf("%s%s.WriteString(%s)\n", indent, buf, expr)
	case KindSequence:
		if t.isOctetSeq() {
			g.printf("%s%s.WriteBytes(%s)\n", indent, buf, expr)
			return
		}
		g.printf("%s%s.WriteUvarint(uint64(len(%s)))\n", indent, buf, expr)
		v := g.temp("e")
		g.printf("%sfor _, %s := range %s {\n", indent, v, expr)
		g.emitWrite(indent+"\t", buf, v, r.Elem, consume)
		g.printf("%s}\n", indent)
	case KindObject: // generic object reference
		if consume {
			g.printf("%sif err := %s.Marshal(%s); err != nil {\n%s\treturn err\n%s}\n", indent, expr, buf, indent, indent)
		} else {
			g.printf("%sif err := %s.MarshalCopy(%s); err != nil {\n%s\treturn err\n%s}\n", indent, expr, buf, indent, indent)
		}
	case KindNamed:
		if r.Struct != nil {
			g.printf("%sif err := write%s(%s, %s); err != nil {\n%s\treturn err\n%s}\n",
				indent, GoName(r.Struct.Name), buf, expr, indent, indent)
			return
		}
		if r.Enum != nil {
			g.printf("%s%s.WriteUint32(uint32(%s))\n", indent, buf, expr)
			return
		}
		// Typed object reference.
		if consume {
			g.printf("%sif err := %s.Obj.Marshal(%s); err != nil {\n%s\treturn err\n%s}\n", indent, expr, buf, indent, indent)
		} else {
			g.printf("%sif err := %s.Obj.MarshalCopy(%s); err != nil {\n%s\treturn err\n%s}\n", indent, expr, buf, indent, indent)
		}
	}
}

// emitRead generates statements unmarshalling into dest (already declared,
// of the Go type for t) from buf. env is the expression for the receiving
// *core.Env (needed for object types). borrow is a Go boolean expression:
// where it holds a byte sequence stays the slice of buf ReadBytes returned
// (skeleton in-params), elsewhere it is copied (client results).
func (g *generator) emitRead(indent, buf, dest, env string, t *Type, borrow string) {
	r := t.resolve()
	simple := func(call string) {
		g.printf("%sif %s, err = %s.%s; err != nil {\n%s\treturn err\n%s}\n", indent, dest, buf, call, indent, indent)
	}
	switch r.Kind {
	case KindBool:
		simple("ReadBool()")
	case KindOctet:
		simple("ReadByte()")
	case KindShort:
		v := g.temp("v")
		g.printf("%s%s, err := %s.ReadInt32()\n%sif err != nil {\n%s\treturn err\n%s}\n", indent, v, buf, indent, indent, indent)
		g.printf("%s%s = int16(%s)\n", indent, dest, v)
	case KindLong:
		simple("ReadInt32()")
	case KindLongLong:
		simple("ReadInt64()")
	case KindUShort:
		v := g.temp("v")
		g.printf("%s%s, err := %s.ReadUint32()\n%sif err != nil {\n%s\treturn err\n%s}\n", indent, v, buf, indent, indent, indent)
		g.printf("%s%s = uint16(%s)\n", indent, dest, v)
	case KindULong:
		simple("ReadUint32()")
	case KindULongLong:
		simple("ReadUint64()")
	case KindFloat:
		simple("ReadFloat32()")
	case KindDouble:
		simple("ReadFloat64()")
	case KindString:
		simple("ReadString()")
	case KindSequence:
		if t.isOctetSeq() {
			p := g.temp("p")
			g.printf("%s%s, err := %s.ReadBytes()\n%sif err != nil {\n%s\treturn err\n%s}\n", indent, p, buf, indent, indent, indent)
			switch borrow {
			case "true":
				g.printf("%s%s = %s\n", indent, dest, p)
			case "false":
				g.printf("%s%s = append([]byte(nil), %s...)\n", indent, dest, p)
			default:
				g.printf("%sif %s = %s; !%s {\n%s\t%s = append([]byte(nil), %s...)\n%s}\n", indent, dest, p, borrow, indent, dest, p, indent)
			}
			return
		}
		n := g.temp("n")
		g.printf("%s%s, err := %s.ReadUvarint()\n%sif err != nil {\n%s\treturn err\n%s}\n", indent, n, buf, indent, indent, indent)
		g.printf("%s%s = make([]%s, %s)\n", indent, dest, goType(r.Elem), n)
		i := g.temp("i")
		g.printf("%sfor %s := range %s {\n", indent, i, dest)
		g.emitRead(indent+"\t", buf, dest+"["+i+"]", env, r.Elem, borrow)
		g.printf("%s}\n", indent)
	case KindObject: // generic object reference
		o := g.temp("o")
		g.printf("%s%s, err := core.Unmarshal(%s, core.GenericMT, %s)\n%sif err != nil {\n%s\treturn err\n%s}\n",
			indent, o, env, buf, indent, indent, indent)
		g.printf("%s%s = %s\n", indent, dest, o)
	case KindNamed:
		if r.Struct != nil {
			v := g.temp("s")
			g.printf("%s%s, err := read%s(%s, %s)\n%sif err != nil {\n%s\treturn err\n%s}\n",
				indent, v, GoName(r.Struct.Name), buf, borrow, indent, indent, indent)
			g.printf("%s%s = %s\n", indent, dest, v)
			return
		}
		if r.Enum != nil {
			v := g.temp("v")
			g.printf("%s%s, err := %s.ReadUint32()\n%sif err != nil {\n%s\treturn err\n%s}\n", indent, v, buf, indent, indent, indent)
			g.printf("%s%s = %s(%s)\n", indent, dest, GoName(r.Enum.Name), v)
			return
		}
		// Typed object reference.
		o := g.temp("o")
		g.printf("%s%s, err := core.Unmarshal(%s, %sMT, %s)\n%sif err != nil {\n%s\treturn err\n%s}\n",
			indent, o, env, GoName(r.Iface.Name), buf, indent, indent, indent)
		g.printf("%s%s = %s{Obj: %s}\n", indent, dest, GoName(r.Iface.Name), o)
	}
}

// Generate emits a single Go source file for f in package pkg.
func Generate(f *File, pkg string) (string, error) {
	g := &generator{}
	g.printf("// Code generated by idlgen from %s. DO NOT EDIT.\n\n", f.Name)
	g.printf("package %s\n\n", pkg)
	g.printf("import (\n")
	g.printf("\t\"repro/internal/buffer\"\n")
	g.printf("\t\"repro/internal/core\"\n")
	g.printf("\t\"repro/internal/stubs\"\n")
	g.printf(")\n\n")
	g.printf("// Silence unused-import errors in interface sets that do not\n")
	g.printf("// exercise every helper.\n")
	g.printf("var _ = buffer.New\nvar _ core.OpNum\nvar _ = stubs.Call\n\n")

	for _, m := range f.Modules {
		for _, en := range m.Enums {
			g.genEnum(en)
		}
		for _, st := range m.Structs {
			g.genStruct(st)
		}
		for _, i := range m.Interfaces {
			if err := g.genInterface(m, i); err != nil {
				return "", err
			}
		}
	}
	return g.b.String(), nil
}

// genEnum emits a Go type, member constants, and a String method for an
// IDL enum (marshalled as unsigned long).
func (g *generator) genEnum(en *Enum) {
	name := GoName(en.Name)
	g.printf("// %s is the IDL enum %s.\n", name, en.Name)
	g.printf("type %s uint32\n\n", name)
	g.printf("// %s members.\nconst (\n", name)
	for k, m := range en.Members {
		if k == 0 {
			g.printf("\t%s%s %s = iota\n", name, GoName(m), name)
		} else {
			g.printf("\t%s%s\n", name, GoName(m))
		}
	}
	g.printf(")\n\n")
	g.printf("// String implements fmt.Stringer.\n")
	g.printf("func (v %s) String() string {\n\tswitch v {\n", name)
	for _, m := range en.Members {
		g.printf("\tcase %s%s:\n\t\treturn %q\n", name, GoName(m), m)
	}
	g.printf("\t}\n\treturn \"%s(?)\"\n}\n\n", en.Name)
}

// genStruct emits a Go struct plus its marshal/unmarshal helpers for an
// IDL struct (a value aggregate, passed field by field).
func (g *generator) genStruct(st *Struct) {
	name := GoName(st.Name)
	g.printf("// %s is the IDL struct %s.\n", name, st.Name)
	g.printf("type %s struct {\n", name)
	for _, fd := range st.Fields {
		g.printf("\t%s %s\n", GoName(fd.Name), goType(fd.Type))
	}
	g.printf("}\n\n")

	g.printf("// write%s marshals v field by field.\n", name)
	g.printf("func write%s(b *buffer.Buffer, v %s) error {\n", name, name)
	for _, fd := range st.Fields {
		g.emitWrite("\t", "b", "v."+GoName(fd.Name), fd.Type, true)
	}
	g.printf("\treturn nil\n}\n\n")

	g.printf("// read%s unmarshals one %s; with borrow, byte sequences in it alias b\n// instead of being copied out.\n", name, name)
	g.printf("func read%s(b *buffer.Buffer, borrow bool) (%s, error) {\n", name, name)
	g.printf("\tvar out %s\n", name)
	g.printf("\terr := func() error {\n\t\tvar err error\n\t\t_ = err\n")
	for _, fd := range st.Fields {
		g.emitRead("\t\t", "b", "out."+GoName(fd.Name), "", fd.Type, "borrow")
	}
	g.printf("\t\treturn nil\n\t}()\n\treturn out, err\n}\n\n")
}

// methodName is the Go method emitted for an operation: the attribute
// accessor name when the op desugared from an attribute, the converted
// operation name otherwise.
func methodName(op *Op) string {
	if op.GoMethod != "" {
		return op.GoMethod
	}
	return GoName(op.Name)
}

// opConst names the operation-number constant for an op on interface i.
func opConst(i *Interface, op *Op) string {
	return GoName(i.Name) + methodName(op) + "Op"
}

func (g *generator) genInterface(m *Module, i *Interface) error {
	name := GoName(i.Name)

	// Hash-collision check over the flattened table. The top two numbers
	// are reserved for subcontract-internal protocol operations (the
	// §5.1.6 type query, the video channel attach).
	byNum := make(map[uint32]string)
	for _, op := range i.Flat {
		n := OpNumOf(op.Name)
		if n >= ^uint32(1) {
			return fmt.Errorf("idl: operation %q in %s hashes to a reserved number; rename it", op.Name, i.QName())
		}
		if prev, ok := byNum[n]; ok && prev != op.Name {
			return fmt.Errorf("idl: operation-number collision between %q and %q in %s", prev, op.Name, i.QName())
		}
		byNum[n] = op.Name
	}

	g.printf("// ---------------------------------------------------------------------\n")
	g.printf("// interface %s\n\n", i.QName())
	g.printf("// %sType is the interface's runtime type identifier.\n", name)
	g.printf("const %sType core.TypeID = %q\n\n", name, i.QName())

	g.printf("// Operation numbers (stable name hashes; see idl.OpNumOf).\n")
	g.printf("const (\n")
	for _, op := range i.Ops {
		g.printf("\t%s core.OpNum = %#x\n", opConst(i, op), OpNumOf(op.Name))
	}
	g.printf(")\n\n")

	g.printf("// %sMT is the method table stubs plug together with a subcontract.\n", name)
	g.printf("var %sMT = &core.MTable{\n\tType: %sType,\n\tDefaultSC: 1, // singleton\n\tOps: []string{", name, name)
	for k, op := range i.Flat {
		if k > 0 {
			g.printf(", ")
		}
		g.printf("%q", op.Name)
	}
	g.printf("},\n}\n\n")

	g.printf("func init() {\n")
	if len(i.ResolvedBases) == 0 {
		g.printf("\tcore.MustRegisterType(%sType, core.ObjectType)\n", name)
	} else {
		g.printf("\tcore.MustRegisterType(%sType", name)
		for _, b := range i.ResolvedBases {
			g.printf(", %sType", GoName(b.Name))
		}
		g.printf(")\n")
	}
	g.printf("\tcore.MustRegisterMTable(%sMT)\n}\n\n", name)

	// Client wrapper.
	g.printf("// %s is the client view of %s objects. Opts is the invocation\n", name, i.QName())
	g.printf("// context attached to every call made through this view; see With.\n")
	g.printf("type %s struct {\n\tObj *core.Object\n\tOpts []core.CallOption\n}\n\n", name)
	g.printf("// IsNil reports whether the reference is nil.\n")
	g.printf("func (c %s) IsNil() bool { return c.Obj == nil }\n\n", name)
	g.printf("// With returns a view of the same object whose calls carry the given\n")
	g.printf("// invocation-context options (core.WithDeadline, core.WithCancel,\n")
	g.printf("// core.WithTrace) in addition to any already attached.\n")
	g.printf("func (c %s) With(opts ...core.CallOption) %s {\n", name, name)
	g.printf("\tc.Opts = append(c.Opts[:len(c.Opts):len(c.Opts)], opts...)\n\treturn c\n}\n\n")
	for _, b := range i.ResolvedBases {
		g.printf("// As%s widens the reference to its %s base interface.\n", GoName(b.Name), b.QName())
		g.printf("func (c %s) As%s() %s { return %s{Obj: c.Obj, Opts: c.Opts} }\n\n", name, GoName(b.Name), GoName(b.Name), GoName(b.Name))
	}
	g.printf("// Narrow%s narrows an object to %s, failing if the dynamic type\n// does not support it.\n", name, i.QName())
	g.printf("func Narrow%s(obj *core.Object) (%s, bool) {\n", name, name)
	g.printf("\tif obj == nil || !obj.Is(%sType) {\n\t\treturn %s{}, false\n\t}\n", name, name)
	g.printf("\treturn %s{Obj: obj}, true\n}\n\n", name)

	// Client stubs for the full flattened table, so inherited operations
	// are directly callable on the subtype's client view. The operation
	// constant lives with the declaring interface; the hash-derived
	// numbers make base-typed and subtype-typed stubs agree.
	for _, op := range i.Flat {
		g.genClientStub(i, op)
	}

	// Server interface.
	g.printf("// %sServer is the server application interface for %s.\n", name, i.QName())
	g.printf("// []byte arguments, struct fields included, are borrowed: they alias the\n")
	g.printf("// request until the method returns, so it copies what it keeps. A []byte\n")
	g.printf("// return value is appended to dst, the reply's own tail, and returned.\n")
	g.printf("type %sServer interface {\n", name)
	for _, b := range i.ResolvedBases {
		g.printf("\t%sServer\n", GoName(b.Name))
	}
	for _, op := range i.Ops {
		g.printf("\t%s\n", g.implSig(op, true))
	}
	g.printf("}\n\n")

	// Skeleton.
	g.genSkeleton(i)
	return nil
}

// splitParams partitions an op's parameters for signature construction.
func splitParams(op *Op) (inputs, outputs []*Param) {
	for _, p := range op.Params {
		switch p.Mode {
		case ModeIn, ModeCopy:
			inputs = append(inputs, p)
		case ModeOut:
			outputs = append(outputs, p)
		case ModeInOut:
			inputs = append(inputs, p)
			outputs = append(outputs, p)
		}
	}
	return inputs, outputs
}

// appendShaped reports whether op returns a byte sequence, which the server
// method appends to a dst argument.
func appendShaped(op *Op) bool { return op.Ret != nil && op.Ret.isOctetSeq() }

// implSig renders the Go method signature of the client stub or the server
// interface method: inputs as arguments, return value + out params + error
// as results; an append-shaped server method takes a trailing dst []byte.
func (g *generator) implSig(op *Op, server bool) string {
	inputs, outputs := splitParams(op)
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", methodName(op))
	for k, p := range inputs {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", goLocal(p.Name), goType(p.Type))
	}
	if server && appendShaped(op) {
		if len(inputs) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("dst []byte")
	}
	b.WriteString(")")
	var results []string
	if op.Ret != nil {
		results = append(results, goType(op.Ret))
	}
	for _, p := range outputs {
		results = append(results, goType(p.Type))
	}
	results = append(results, "error")
	if len(results) == 1 {
		b.WriteString(" error")
	} else {
		fmt.Fprintf(&b, " (%s)", strings.Join(results, ", "))
	}
	return b.String()
}

func (g *generator) genClientStub(i *Interface, op *Op) {
	name := GoName(i.Name)
	inputs, outputs := splitParams(op)

	if op.Oneway {
		g.printf("// %s invokes the oneway %s operation: server failures are\n// not reported (fire and forget).\n", methodName(op), op.Name)
		g.printf("func (c %s) %s {\n", name, g.implSig(op, false))
		if len(inputs) == 0 {
			g.printf("\treturn stubs.CallOneway(c.Obj, %s, nil, c.Opts...)\n}\n\n", opConst(op.Owner, op))
			return
		}
		g.printf("\treturn stubs.CallOneway(c.Obj, %s, func(b *buffer.Buffer) error {\n", opConst(op.Owner, op))
		for _, p := range inputs {
			g.emitWrite("\t\t", "b", goLocal(p.Name), p.Type, p.Mode != ModeCopy)
		}
		g.printf("\t\treturn nil\n\t}, c.Opts...)\n}\n\n")
		return
	}

	g.printf("// %s invokes the %s operation.\n", methodName(op), op.Name)
	g.printf("func (c %s) %s {\n", name, g.implSig(op, false))

	// Result variables.
	if op.Ret != nil {
		g.printf("\tvar ret0 %s = %s\n", goType(op.Ret), zero(op.Ret))
	}
	for k, p := range outputs {
		g.printf("\tvar out%d %s = %s\n", k, goType(p.Type), zero(p.Type))
	}

	g.printf("\terr := stubs.Call(c.Obj, %s,\n", opConst(op.Owner, op))
	// Argument marshalling closure.
	if len(inputs) == 0 {
		g.printf("\t\tnil,\n")
	} else {
		g.printf("\t\tfunc(b *buffer.Buffer) error {\n")
		for _, p := range inputs {
			g.emitWrite("\t\t\t", "b", goLocal(p.Name), p.Type, p.Mode != ModeCopy)
		}
		g.printf("\t\t\treturn nil\n\t\t},\n")
	}
	// Result unmarshalling closure.
	if op.Ret == nil && len(outputs) == 0 {
		g.printf("\t\tnil, c.Opts...)\n")
	} else {
		g.printf("\t\tfunc(b *buffer.Buffer) error {\n")
		g.printf("\t\t\tvar err error\n\t\t\t_ = err\n")
		if op.Ret != nil {
			g.emitRead("\t\t\t", "b", "ret0", "c.Obj.Env", op.Ret, "false")
		}
		for k, p := range outputs {
			g.emitRead("\t\t\t", "b", fmt.Sprintf("out%d", k), "c.Obj.Env", p.Type, "false")
		}
		g.printf("\t\t\treturn nil\n\t\t}, c.Opts...)\n")
	}

	// Return.
	g.printf("\treturn ")
	if op.Ret != nil {
		g.printf("ret0, ")
	}
	for k := range outputs {
		g.printf("out%d, ", k)
	}
	g.printf("err\n}\n\n")
}

func (g *generator) genSkeleton(i *Interface) {
	name := GoName(i.Name)
	g.printf("// New%sSkeleton dispatches incoming calls into impl. env is the\n", name)
	g.printf("// server's environment (used to unmarshal object-typed arguments).\n")
	g.printf("func New%sSkeleton(env *core.Env, impl %sServer) stubs.Skeleton {\n", name, name)
	g.printf("\t_ = env\n")
	g.printf("\treturn stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {\n")
	g.printf("\t\tswitch op {\n")
	for _, op := range i.Flat {
		g.printf("\t\tcase %#x: // %s (from %s)\n", OpNumOf(op.Name), op.Name, op.Owner.QName())
		g.genDispatchCase(op)
	}
	g.printf("\t\tdefault:\n\t\t\treturn stubs.ErrBadOp\n")
	g.printf("\t\t}\n\t})\n}\n\n")
}

func (g *generator) genDispatchCase(op *Op) {
	inputs, outputs := splitParams(op)
	// Unmarshal inputs.
	for k, p := range inputs {
		g.printf("\t\t\tvar a%d %s = %s\n", k, goType(p.Type), zero(p.Type))
		_ = p
	}
	if len(inputs) > 0 {
		g.printf("\t\t\t{\n\t\t\t\tvar err error\n\t\t\t\t_ = err\n")
		for k, p := range inputs {
			g.emitRead("\t\t\t\t", "args", fmt.Sprintf("a%d", k), "env", p.Type, "true")
		}
		g.printf("\t\t\t}\n")
	}
	// Call implementation.
	g.printf("\t\t\t")
	if op.Ret != nil {
		g.printf("r0, ")
	}
	for k := range outputs {
		g.printf("o%d, ", k)
	}
	var actuals []string
	for k := range inputs {
		actuals = append(actuals, fmt.Sprintf("a%d", k))
	}
	if appendShaped(op) {
		actuals = append(actuals, "results.ReserveBytes()")
	}
	g.printf("err := impl.%s(%s)\n", methodName(op), strings.Join(actuals, ", "))
	g.printf("\t\t\tif err != nil {\n\t\t\t\treturn err\n\t\t\t}\n")
	// Marshal results.
	if appendShaped(op) {
		g.printf("\t\t\tresults.CommitBytes(r0)\n")
	} else if op.Ret != nil {
		g.emitWrite("\t\t\t", "results", "r0", op.Ret, true)
	}
	for k, p := range outputs {
		g.emitWrite("\t\t\t", "results", fmt.Sprintf("o%d", k), p.Type, true)
	}
	g.printf("\t\t\treturn nil\n")
}
