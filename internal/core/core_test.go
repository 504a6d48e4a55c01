package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/kernel"
)

// fakeSC is a minimal subcontract whose marshalled form is the standard
// header plus one uint64 of representation.
type fakeSC struct {
	id   ID
	name string
}

func (f *fakeSC) ID() ID       { return f.id }
func (f *fakeSC) Name() string { return f.name }

func (f *fakeSC) Unmarshal(env *Env, mt *MTable, buf *buffer.Buffer) (*Object, error) {
	raw, err := buf.PeekUint32()
	if err != nil {
		return nil, err
	}
	if ID(raw) != f.id {
		sc, err := env.Registry.Lookup(ID(raw))
		if err != nil {
			return nil, err
		}
		return sc.Unmarshal(env, mt, buf)
	}
	actual, err := ReadHeader(buf, f.id)
	if err != nil {
		return nil, err
	}
	rep, err := buf.ReadUint64()
	if err != nil {
		return nil, err
	}
	return NewObject(env, PickMTable(mt, actual), f, rep), nil
}

func (f *fakeSC) Marshal(obj *Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	WriteHeader(buf, f.id, obj.MT.Type)
	buf.WriteUint64(obj.Rep.(uint64))
	return obj.MarkConsumed()
}

func (f *fakeSC) MarshalCopy(obj *Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	WriteHeader(buf, f.id, obj.MT.Type)
	buf.WriteUint64(obj.Rep.(uint64))
	return nil
}

func (f *fakeSC) InvokePreamble(obj *Object, call *Call) error { return obj.CheckLive() }

func (f *fakeSC) Invoke(obj *Object, call *Call) (*buffer.Buffer, error) {
	return nil, errors.New("fake: no transport")
}

func (f *fakeSC) Copy(obj *Object) (*Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	return NewObject(obj.Env, obj.MT, f, obj.Rep), nil
}

func (f *fakeSC) Consume(obj *Object) error { return obj.MarkConsumed() }

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	k := kernel.New("test")
	return NewEnv(k.NewDomain("dom"))
}

// Type registrations shared by the tests in this package. Names are
// prefixed to avoid colliding with other packages' registrations in the
// process-wide graph.
var typesOnce sync.Once

func registerTestTypes(t *testing.T) {
	t.Helper()
	typesOnce.Do(func() {
		MustRegisterType("coretest.object")
		MustRegisterType("coretest.file", "coretest.object")
		MustRegisterType("coretest.io", "coretest.object")
		MustRegisterType("coretest.cacheable_file", "coretest.file", "coretest.io")
		MustRegisterMTable(&MTable{Type: "coretest.file", DefaultSC: 901, Ops: []string{"read", "write"}})
		MustRegisterMTable(&MTable{Type: "coretest.cacheable_file", DefaultSC: 902, Ops: []string{"read", "write", "flush"}})
	})
}

func TestTypeGraph(t *testing.T) {
	registerTestTypes(t)
	cases := []struct {
		t, u TypeID
		want bool
	}{
		{"coretest.file", "coretest.file", true},
		{"coretest.file", "coretest.object", true},
		{"coretest.cacheable_file", "coretest.file", true},
		{"coretest.cacheable_file", "coretest.io", true},
		{"coretest.cacheable_file", "coretest.object", true},
		{"coretest.object", "coretest.file", false},
		{"coretest.file", "coretest.io", false},
		{"coretest.nosuch", "coretest.object", false},
	}
	for _, c := range cases {
		if got := IsA(c.t, c.u); got != c.want {
			t.Errorf("IsA(%q, %q) = %v, want %v", c.t, c.u, got, c.want)
		}
	}
	if !TypeKnown("coretest.file") || TypeKnown("coretest.nosuch") {
		t.Error("TypeKnown wrong")
	}
	if err := RegisterType("coretest.bad", "coretest.unregistered-parent"); !errors.Is(err, ErrBadType) {
		t.Errorf("RegisterType with unknown parent = %v, want ErrBadType", err)
	}
	ps := Parents("coretest.cacheable_file")
	if len(ps) != 2 {
		t.Errorf("Parents = %v, want 2 entries", ps)
	}
}

func TestMTableRegistry(t *testing.T) {
	registerTestTypes(t)
	if _, ok := LookupMTable("coretest.file"); !ok {
		t.Fatal("mtable for coretest.file missing")
	}
	if err := RegisterMTable(&MTable{Type: "coretest.nosuch"}); !errors.Is(err, ErrBadType) {
		t.Fatalf("RegisterMTable unknown type = %v, want ErrBadType", err)
	}
}

func TestPickMTable(t *testing.T) {
	registerTestTypes(t)
	fileMT, _ := LookupMTable("coretest.file")
	cacheMT, _ := LookupMTable("coretest.cacheable_file")

	if got := PickMTable(fileMT, "coretest.cacheable_file"); got != cacheMT {
		t.Errorf("PickMTable did not upgrade to richer table: %v", got)
	}
	if got := PickMTable(fileMT, "coretest.file"); got != fileMT {
		t.Errorf("same type should keep expected table")
	}
	if got := PickMTable(fileMT, "coretest.unknowntype"); got != fileMT {
		t.Errorf("unknown dynamic type should fall back to expected table")
	}
	// coretest.io has no registered mtable and is not a subtype of file.
	if got := PickMTable(fileMT, "coretest.io"); got != fileMT {
		t.Errorf("non-subtype must not replace the table")
	}
	if got := PickMTable(fileMT, ""); got != fileMT {
		t.Errorf("empty dynamic type should keep expected table")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	a := &fakeSC{id: 10, name: "alpha"}
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(a); err != nil {
		t.Fatalf("re-registering same instance should be idempotent: %v", err)
	}
	if err := r.Register(&fakeSC{id: 10, name: "clash"}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := r.Register(&fakeSC{id: 0, name: "nil"}); err == nil {
		t.Fatal("reserved id 0 accepted")
	}
	got, err := r.Lookup(10)
	if err != nil || got != Subcontract(a) {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup(99); !errors.Is(err, ErrUnknownSubcontract) {
		t.Fatalf("Lookup miss = %v, want ErrUnknownSubcontract", err)
	}
	if sc, ok := r.LookupName("alpha"); !ok || sc != Subcontract(a) {
		t.Fatal("LookupName failed")
	}
	lookups, misses, loads := r.Stats()
	if lookups != 2 || misses != 1 || loads != 0 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/0", lookups, misses, loads)
	}
}

func TestLoaderTrustedPath(t *testing.T) {
	store := NewLibraryStore()
	installed := false
	store.Install("/usr/lib/sc", "beta.so", func(reg *Registry) error {
		installed = true
		return reg.Register(&fakeSC{id: 20, name: "beta"})
	})
	names := NameServiceFunc(func(id ID) (string, error) {
		if id == 20 {
			return "beta.so", nil
		}
		return "", fmt.Errorf("no mapping for %d", id)
	})

	r := NewRegistry()
	r.SetLoader(&Loader{Names: names, Store: store, SearchPath: []string{"/usr/lib/sc"}})

	sc, err := r.Lookup(20)
	if err != nil {
		t.Fatal(err)
	}
	if !installed || sc.Name() != "beta" {
		t.Fatalf("dynamic load failed: installed=%v sc=%v", installed, sc)
	}
	_, _, loads := r.Stats()
	if loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	// Second lookup must not reload.
	if _, err := r.Lookup(20); err != nil {
		t.Fatal(err)
	}
	if _, _, loads := r.Stats(); loads != 1 {
		t.Fatalf("loads after warm lookup = %d, want 1", loads)
	}
}

func TestLoaderUntrustedRefused(t *testing.T) {
	store := NewLibraryStore()
	store.Install("/tmp/evil", "mal.so", func(reg *Registry) error {
		return reg.Register(&fakeSC{id: 30, name: "mal"})
	})
	names := NameServiceFunc(func(id ID) (string, error) { return "mal.so", nil })
	r := NewRegistry()
	r.SetLoader(&Loader{Names: names, Store: store, SearchPath: []string{"/usr/lib/sc"}})
	if _, err := r.Lookup(30); !errors.Is(err, ErrUntrustedLibrary) {
		t.Fatalf("Lookup = %v, want ErrUntrustedLibrary", err)
	}
}

func TestLoaderMissingLibrary(t *testing.T) {
	store := NewLibraryStore()
	names := NameServiceFunc(func(id ID) (string, error) { return "ghost.so", nil })
	r := NewRegistry()
	r.SetLoader(&Loader{Names: names, Store: store, SearchPath: []string{"/usr/lib/sc"}})
	if _, err := r.Lookup(31); !errors.Is(err, ErrNoLibrary) {
		t.Fatalf("Lookup = %v, want ErrNoLibrary", err)
	}
}

func TestLoaderNoNameMapping(t *testing.T) {
	store := NewLibraryStore()
	names := NameServiceFunc(func(id ID) (string, error) { return "", errors.New("unbound") })
	r := NewRegistry()
	r.SetLoader(&Loader{Names: names, Store: store, SearchPath: nil})
	if _, err := r.Lookup(32); !errors.Is(err, ErrNoLibrary) {
		t.Fatalf("Lookup = %v, want ErrNoLibrary", err)
	}
}

func TestLoaderLibraryForgotToRegister(t *testing.T) {
	store := NewLibraryStore()
	store.Install("/usr/lib/sc", "lazy.so", func(reg *Registry) error { return nil })
	names := NameServiceFunc(func(id ID) (string, error) { return "lazy.so", nil })
	r := NewRegistry()
	r.SetLoader(&Loader{Names: names, Store: store, SearchPath: []string{"/usr/lib/sc"}})
	if _, err := r.Lookup(33); !errors.Is(err, ErrUnknownSubcontract) {
		t.Fatalf("Lookup = %v, want ErrUnknownSubcontract", err)
	}
}

func TestConcurrentDiscovery(t *testing.T) {
	// Two threads miss on the same identifier simultaneously; the library
	// installs a fresh instance each time, so the loser's install reports
	// a duplicate — both lookups must still succeed.
	store := NewLibraryStore()
	store.Install("/usr/lib/sc", "race.so", func(reg *Registry) error {
		return reg.Register(&fakeSC{id: 40, name: "race"})
	})
	names := NameServiceFunc(func(ID) (string, error) { return "race.so", nil })
	r := NewRegistry()
	r.SetLoader(&Loader{Names: names, Store: store, SearchPath: []string{"/usr/lib/sc"}})

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Lookup(40); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent discovery failed: %v", err)
	}
}

func TestLibraryStoreRemove(t *testing.T) {
	store := NewLibraryStore()
	store.Install("/d", "x.so", func(*Registry) error { return nil })
	store.Remove("/d", "x.so")
	if store.existsAnywhere("x.so") {
		t.Fatal("library still present after Remove")
	}
}

func TestUnmarshalDispatch(t *testing.T) {
	registerTestTypes(t)
	env := newTestEnv(t)
	def := &fakeSC{id: 901, name: "default-fake"}
	other := &fakeSC{id: 902, name: "other-fake"}
	env.Registry.MustRegister(def)
	env.Registry.MustRegister(other)

	fileMT, _ := LookupMTable("coretest.file")

	// Marshal with the *other* subcontract; unmarshal expecting the
	// default. The peek protocol must route to `other`.
	src := NewObject(env, fileMT, other, uint64(7))
	buf := buffer.New(32)
	if err := src.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(env, fileMT, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SC != ClientOps(other) || got.Rep.(uint64) != 7 {
		t.Fatalf("unmarshalled %v rep=%v, want other/7", got.SC.Name(), got.Rep)
	}
}

func TestUnmarshalNil(t *testing.T) {
	registerTestTypes(t)
	env := newTestEnv(t)
	buf := buffer.New(8)
	var nilObj *Object
	if err := nilObj.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	fileMT, _ := LookupMTable("coretest.file")
	got, err := Unmarshal(env, fileMT, buf)
	if err != nil || got != nil {
		t.Fatalf("Unmarshal(nil) = %v, %v", got, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil marker not fully consumed: %d bytes left", buf.Len())
	}
}

func TestUnmarshalUnknownSubcontract(t *testing.T) {
	registerTestTypes(t)
	env := newTestEnv(t)
	buf := buffer.New(8)
	WriteHeader(buf, 777, "coretest.file")
	fileMT, _ := LookupMTable("coretest.file")
	if _, err := Unmarshal(env, fileMT, buf); !errors.Is(err, ErrUnknownSubcontract) {
		t.Fatalf("Unmarshal = %v, want ErrUnknownSubcontract", err)
	}
}

func TestReadHeaderWrongID(t *testing.T) {
	buf := buffer.New(8)
	WriteHeader(buf, 5, "t")
	if _, err := ReadHeader(buf, 6); !errors.Is(err, ErrWrongSubcontract) {
		t.Fatalf("ReadHeader = %v, want ErrWrongSubcontract", err)
	}
}

func TestConsumeSemantics(t *testing.T) {
	registerTestTypes(t)
	env := newTestEnv(t)
	sc := &fakeSC{id: 903, name: "consume-fake"}
	fileMT, _ := LookupMTable("coretest.file")
	obj := NewObject(env, fileMT, sc, uint64(1))

	if obj.Consumed() {
		t.Fatal("fresh object marked consumed")
	}
	buf := buffer.New(16)
	if err := obj.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if !obj.Consumed() {
		t.Fatal("marshal did not consume the object")
	}
	if err := obj.Marshal(buffer.New(0)); !errors.Is(err, ErrConsumed) {
		t.Fatalf("second marshal = %v, want ErrConsumed", err)
	}
	if err := obj.Consume(); !errors.Is(err, ErrConsumed) {
		t.Fatalf("consume after marshal = %v, want ErrConsumed", err)
	}
	if _, err := obj.Copy(); !errors.Is(err, ErrConsumed) {
		t.Fatalf("copy after marshal = %v, want ErrConsumed", err)
	}

	// Racing consumers: exactly one wins, the rest see ErrConsumed.
	raced := NewObject(env, fileMT, sc, uint64(2))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = raced.Consume()
		}()
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrConsumed):
			t.Errorf("racing consume = %v, want nil or ErrConsumed", err)
		}
	}
	if won != 1 {
		t.Errorf("%d racing consumes succeeded, want 1", won)
	}
}

func TestMarshalCopyLeavesOriginal(t *testing.T) {
	registerTestTypes(t)
	env := newTestEnv(t)
	sc := &fakeSC{id: 904, name: "mc-fake"}
	fileMT, _ := LookupMTable("coretest.file")
	obj := NewObject(env, fileMT, sc, uint64(5))
	buf := buffer.New(16)
	if err := obj.MarshalCopy(buf); err != nil {
		t.Fatal(err)
	}
	if obj.Consumed() {
		t.Fatal("marshal_copy consumed the original")
	}
}

func TestNilObjectConvenience(t *testing.T) {
	var o *Object
	if err := o.Consume(); err != nil {
		t.Fatal(err)
	}
	c, err := o.Copy()
	if err != nil || c != nil {
		t.Fatal("nil copy should be nil")
	}
	if o.Is("anything") {
		t.Fatal("nil Is = true")
	}
	if o.String() != "Object(nil)" {
		t.Fatalf("String = %q", o.String())
	}
}

func TestObjectIs(t *testing.T) {
	registerTestTypes(t)
	env := newTestEnv(t)
	cacheMT, _ := LookupMTable("coretest.cacheable_file")
	obj := NewObject(env, cacheMT, &fakeSC{id: 905, name: "is-fake"}, uint64(0))
	if !obj.Is("coretest.file") || !obj.Is("coretest.cacheable_file") || obj.Is("coretest.nosuch") {
		t.Fatal("Is narrowing wrong")
	}
}

func TestEnvVars(t *testing.T) {
	env := newTestEnv(t)
	if _, ok := env.Get("x"); ok {
		t.Fatal("unset var present")
	}
	env.Set("x", 42)
	v, ok := env.Get("x")
	if !ok || v.(int) != 42 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
}

func TestCallArgsReplace(t *testing.T) {
	c := NewCall(3)
	if c.Op != 3 || c.Args() == nil {
		t.Fatal("NewCall wrong")
	}
	nb := buffer.New(8)
	c.SetArgs(nb)
	if c.Args() != nb {
		t.Fatal("SetArgs did not replace buffer")
	}
}

func TestObjectString(t *testing.T) {
	registerTestTypes(t)
	env := newTestEnv(t)
	fileMT, _ := LookupMTable("coretest.file")
	obj := NewObject(env, fileMT, &fakeSC{id: 906, name: "str-fake"}, uint64(0))
	if obj.String() == "" {
		t.Fatal("empty String")
	}
}
