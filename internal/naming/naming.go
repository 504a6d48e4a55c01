// Package naming implements the Spring naming service: hierarchical
// naming contexts, exported as Spring objects through the subcontract
// machinery itself.
//
// Naming contexts appear throughout the paper's designs: a network naming
// context maps subcontract identifiers to library names for dynamic
// discovery (§6.2, served here by SCMap), the caching subcontract resolves
// its cache-manager name in a machine-local context (§8.2), and the
// reconnectable subcontract re-resolves an object name to reconnect after
// a server crash (§8.3).
//
// A context maps simple names to objects. Compound names use '/' as a
// separator; resolving "a/b" resolves "a" locally and forwards "b" to the
// resulting context object, which may live in another domain or on another
// machine — the forwarding happens through ordinary object invocation.
package naming

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// ContextType is the naming context interface's type identifier.
const ContextType core.TypeID = "spring.naming_context"

// Context operation numbers, in method-table order.
const (
	opResolve core.OpNum = iota
	opBind
	opUnbind
	opList
)

// ContextMT is the naming context method table.
var ContextMT = &core.MTable{
	Type:      ContextType,
	DefaultSC: singleton.SCID,
	Ops:       []string{"resolve", "bind", "unbind", "list"},
}

// Remote error codes raised by naming operations.
const (
	CodeNotBound     uint32 = 1101
	CodeAlreadyBound uint32 = 1102
	CodeNotContext   uint32 = 1103
	CodeBadName      uint32 = 1104
)

func init() {
	core.MustRegisterType(ContextType, core.ObjectType)
	core.MustRegisterMTable(ContextMT)
}

// IsNotBound reports whether err is the not-bound remote exception.
func IsNotBound(err error) bool { return stubs.CodeOf(err) == CodeNotBound }

// Server is a naming context server: the state behind one context object.
type Server struct {
	env *core.Env

	mu      sync.Mutex
	entries map[string]*core.Object
	self    *core.Object
	door    *kernel.Door
}

// NewServer creates a naming context served from env's domain and exports
// it with the singleton subcontract.
func NewServer(env *core.Env) *Server {
	s := &Server{env: env, entries: make(map[string]*core.Object)}
	s.self, s.door = singleton.Export(env, ContextMT, s.skeleton(), nil)
	return s
}

// Object returns the server's own context object. Callers who pass it
// elsewhere should Copy it first (marshal consumes).
func (s *Server) Object() *core.Object { return s.self }

// Handle returns a fresh client Context on the server, for use within the
// server's own domain.
func (s *Server) Handle() (Context, error) {
	obj, err := s.self.Copy()
	if err != nil {
		return Context{}, err
	}
	return Context{Obj: obj}, nil
}

// Revoke revokes the context's door (§5.2.3).
func (s *Server) Revoke() { s.door.Revoke() }

// split separates the first component of a compound name.
func split(name string) (first, rest string, err error) {
	name = strings.TrimPrefix(name, "/")
	if name == "" {
		return "", "", &stubs.RemoteError{Code: CodeBadName, Msg: "naming: empty name"}
	}
	if strings.Contains(name, "//") || strings.HasSuffix(name, "/") {
		return "", "", &stubs.RemoteError{Code: CodeBadName, Msg: fmt.Sprintf("naming: malformed name %q", name)}
	}
	if i := strings.IndexByte(name, '/'); i >= 0 {
		first, rest = name[:i], name[i+1:]
		if first == "" || rest == "" {
			return "", "", &stubs.RemoteError{Code: CodeBadName, Msg: fmt.Sprintf("naming: malformed name %q", name)}
		}
		return first, rest, nil
	}
	return name, "", nil
}

func (s *Server) skeleton() stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case opResolve:
			name, err := args.ReadString()
			if err != nil {
				return err
			}
			return s.resolve(name, results)
		case opBind:
			name, err := args.ReadString()
			if err != nil {
				return err
			}
			rebind, err := args.ReadBool()
			if err != nil {
				return err
			}
			obj, err := core.Unmarshal(s.env, core.GenericMT, args)
			if err != nil {
				return err
			}
			return s.bind(name, obj, rebind)
		case opUnbind:
			name, err := args.ReadString()
			if err != nil {
				return err
			}
			return s.unbind(name)
		case opList:
			s.mu.Lock()
			names := make([]string, 0, len(s.entries))
			for n := range s.entries {
				names = append(names, n)
			}
			s.mu.Unlock()
			sort.Strings(names)
			results.WriteUvarint(uint64(len(names)))
			for _, n := range names {
				results.WriteString(n)
			}
			return nil
		default:
			return stubs.ErrBadOp
		}
	})
}

// resolve looks up a possibly compound name and marshals a copy of the
// resolved object into results.
func (s *Server) resolve(name string, results *buffer.Buffer) error {
	first, rest, err := split(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	entry, ok := s.entries[first]
	s.mu.Unlock()
	if !ok {
		return &stubs.RemoteError{Code: CodeNotBound, Msg: fmt.Sprintf("naming: not bound: %q", first)}
	}
	if rest == "" {
		return entry.MarshalCopy(results)
	}
	if !entry.Is(ContextType) {
		return &stubs.RemoteError{Code: CodeNotContext, Msg: fmt.Sprintf("naming: %q is not a context", first)}
	}
	// Forward the remainder through ordinary object invocation; the
	// subcontract carries the call wherever the subcontext lives.
	sub := Context{Obj: entry}
	child, err := sub.Resolve(rest, core.GenericMT)
	if err != nil {
		return err
	}
	return child.Marshal(results)
}

// bind installs obj under a simple name, or forwards a compound bind to
// the owning subcontext.
func (s *Server) bind(name string, obj *core.Object, rebind bool) error {
	first, rest, err := split(name)
	if err != nil {
		consumeQuietly(obj)
		return err
	}
	if rest != "" {
		s.mu.Lock()
		entry, ok := s.entries[first]
		s.mu.Unlock()
		if !ok {
			consumeQuietly(obj)
			return &stubs.RemoteError{Code: CodeNotBound, Msg: fmt.Sprintf("naming: not bound: %q", first)}
		}
		if !entry.Is(ContextType) {
			consumeQuietly(obj)
			return &stubs.RemoteError{Code: CodeNotContext, Msg: fmt.Sprintf("naming: %q is not a context", first)}
		}
		return Context{Obj: entry}.bindObject(rest, obj, rebind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[first]; ok {
		if !rebind {
			consumeQuietly(obj)
			return &stubs.RemoteError{Code: CodeAlreadyBound, Msg: fmt.Sprintf("naming: already bound: %q", first)}
		}
		consumeQuietly(old)
	}
	s.entries[first] = obj
	return nil
}

func (s *Server) unbind(name string) error {
	first, rest, err := split(name)
	if err != nil {
		return err
	}
	if rest != "" {
		s.mu.Lock()
		entry, ok := s.entries[first]
		s.mu.Unlock()
		if !ok {
			return &stubs.RemoteError{Code: CodeNotBound, Msg: fmt.Sprintf("naming: not bound: %q", first)}
		}
		if !entry.Is(ContextType) {
			return &stubs.RemoteError{Code: CodeNotContext, Msg: fmt.Sprintf("naming: %q is not a context", first)}
		}
		return Context{Obj: entry}.Unbind(rest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.entries[first]
	if !ok {
		return &stubs.RemoteError{Code: CodeNotBound, Msg: fmt.Sprintf("naming: not bound: %q", first)}
	}
	delete(s.entries, first)
	consumeQuietly(entry)
	return nil
}

// consumeQuietly releases an object whose disposal outcome cannot be
// reported (error paths and rebind displacement).
func consumeQuietly(obj *core.Object) {
	if obj != nil {
		_ = obj.Consume()
	}
}

// Context is the client view of a naming context: generated-style stubs
// over a context object.
type Context struct {
	Obj *core.Object
}

// Resolve maps name to an object, unmarshalled against the expected method
// table (use core.GenericMT when the type is unknown).
func (c Context) Resolve(name string, expected *core.MTable) (*core.Object, error) {
	var out *core.Object
	err := stubs.Call(c.Obj, opResolve,
		func(b *buffer.Buffer) error { b.WriteString(name); return nil },
		func(b *buffer.Buffer) error {
			var err error
			out, err = core.Unmarshal(c.Obj.Env, expected, b)
			return err
		})
	return out, err
}

// Bind binds obj under name, transferring the object into the context
// (obj is consumed). With rebind, an existing binding is replaced.
func (c Context) Bind(name string, obj *core.Object, rebind bool) error {
	return c.bindObject(name, obj, rebind)
}

// BindCopy binds a copy of obj under name; the caller's object stays
// usable (the IDL copy parameter mode, §5.1.5).
func (c Context) BindCopy(name string, obj *core.Object, rebind bool) error {
	return stubs.Call(c.Obj, opBind,
		func(b *buffer.Buffer) error {
			b.WriteString(name)
			b.WriteBool(rebind)
			return obj.MarshalCopy(b)
		}, nil)
}

func (c Context) bindObject(name string, obj *core.Object, rebind bool) error {
	return stubs.Call(c.Obj, opBind,
		func(b *buffer.Buffer) error {
			b.WriteString(name)
			b.WriteBool(rebind)
			return obj.Marshal(b)
		}, nil)
}

// Unbind removes the binding for name.
func (c Context) Unbind(name string) error {
	return stubs.Call(c.Obj, opUnbind,
		func(b *buffer.Buffer) error { b.WriteString(name); return nil }, nil)
}

// List returns the names bound in the context, sorted.
func (c Context) List() ([]string, error) {
	var names []string
	err := stubs.Call(c.Obj, opList, nil, func(b *buffer.Buffer) error {
		n, err := b.ReadCount(false)
		if err != nil {
			return err
		}
		names = make([]string, 0, n)
		for i := 0; i < n; i++ {
			s, err := b.ReadString()
			if err != nil {
				return err
			}
			names = append(names, s)
		}
		return nil
	})
	return names, err
}
