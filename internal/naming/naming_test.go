package naming

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

func setup(t *testing.T) (*kernel.Kernel, *core.Env, *core.Env) {
	t.Helper()
	k := kernel.New("m1")
	srv, err := sctest.NewEnv(k, "nameserver", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := sctest.NewEnv(k, "client", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	return k, srv, cli
}

// clientContext exports the server's context into the client domain.
func clientContext(t *testing.T, s *Server, cli *core.Env) Context {
	t.Helper()
	cp, err := s.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sctest.Transfer(cp, cli, ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	return Context{Obj: obj}
}

func TestBindResolve(t *testing.T) {
	k, srv, cli := setup(t)
	_ = k
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)

	ctrEnv, err := sctest.NewEnv(k, "counter-server", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(ctrEnv, sctest.CounterMT, ctr.Skeleton(), nil)

	if err := ctx.Bind("counter", obj, false); err != nil {
		t.Fatal(err)
	}
	if !obj.Consumed() {
		t.Fatal("Bind should consume the bound object")
	}

	got, err := ctx.Resolve("counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(got, 3); err != nil || v != 3 {
		t.Fatalf("resolved object Add = %d, %v", v, err)
	}
	// Resolving again yields another working object (the context retains
	// the binding, handing out copies).
	got2, err := ctx.Resolve("counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Get(got2); err != nil || v != 3 {
		t.Fatalf("second resolve sees %d, %v", v, err)
	}
}

func TestResolveNotBound(t *testing.T) {
	_, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)
	_, err := ctx.Resolve("ghost", core.GenericMT)
	if !IsNotBound(err) {
		t.Fatalf("Resolve(ghost) = %v, want not-bound", err)
	}
}

func TestBindDuplicateAndRebind(t *testing.T) {
	k, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)

	mk := func() *core.Object {
		env, err := sctest.NewEnv(k, "x", singleton.Register)
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := singleton.Export(env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
		return obj
	}
	if err := ctx.Bind("a", mk(), false); err != nil {
		t.Fatal(err)
	}
	err := ctx.Bind("a", mk(), false)
	if stubs.CodeOf(err) != CodeAlreadyBound {
		t.Fatalf("duplicate bind = %v, want already-bound", err)
	}
	if err := ctx.Bind("a", mk(), true); err != nil {
		t.Fatalf("rebind = %v", err)
	}
}

func TestUnbind(t *testing.T) {
	k, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)
	env, err := sctest.NewEnv(k, "x", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := singleton.Export(env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
	if err := ctx.Bind("a", obj, false); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Unbind("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Resolve("a", core.GenericMT); !IsNotBound(err) {
		t.Fatalf("resolve after unbind = %v", err)
	}
	if err := ctx.Unbind("a"); !IsNotBound(err) {
		t.Fatalf("double unbind = %v", err)
	}
}

func TestList(t *testing.T) {
	k, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		env, err := sctest.NewEnv(k, "x", singleton.Register)
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := singleton.Export(env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
		if err := ctx.Bind(n, obj, false); err != nil {
			t.Fatal(err)
		}
	}
	names, err := ctx.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
}

func TestCompoundNames(t *testing.T) {
	k, srv, cli := setup(t)
	root := NewServer(srv)
	ctx := clientContext(t, root, cli)

	// A subcontext served by a different domain.
	subEnv, err := sctest.NewEnv(k, "subserver", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	sub := NewServer(subEnv)
	subObj, err := sub.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Bind("services", subObj, false); err != nil {
		t.Fatal(err)
	}

	ctrEnv, err := sctest.NewEnv(k, "ctr", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := singleton.Export(ctrEnv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
	if err := ctx.Bind("services/counter", obj, false); err != nil {
		t.Fatal(err)
	}

	got, err := ctx.Resolve("services/counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(got, 2); err != nil || v != 2 {
		t.Fatalf("compound resolve Add = %d, %v", v, err)
	}

	if err := ctx.Unbind("services/counter"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Resolve("services/counter", core.GenericMT); !IsNotBound(err) {
		t.Fatalf("resolve after compound unbind = %v", err)
	}
}

func TestCompoundThroughNonContext(t *testing.T) {
	k, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)
	env, err := sctest.NewEnv(k, "x", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := singleton.Export(env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
	if err := ctx.Bind("leaf", obj, false); err != nil {
		t.Fatal(err)
	}
	_, err = ctx.Resolve("leaf/deeper", core.GenericMT)
	if stubs.CodeOf(err) != CodeNotContext {
		t.Fatalf("resolve through leaf = %v, want not-context", err)
	}
}

func TestBadNames(t *testing.T) {
	_, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)
	for _, bad := range []string{"", "/", "a//b"} {
		if _, err := ctx.Resolve(bad, core.GenericMT); stubs.CodeOf(err) != CodeBadName {
			t.Errorf("Resolve(%q) = %v, want bad-name", bad, err)
		}
	}
}

func TestBindCopyRetainsOriginal(t *testing.T) {
	k, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)
	env, err := sctest.NewEnv(k, "x", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := singleton.Export(env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
	if err := ctx.BindCopy("c", obj, false); err != nil {
		t.Fatal(err)
	}
	if obj.Consumed() {
		t.Fatal("BindCopy consumed the original")
	}
	if _, err := sctest.Add(obj, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSCMap(t *testing.T) {
	_, srv, cli := setup(t)
	m := NewSCMapServer(srv)
	m.Publish(4, "replicon.so")

	cp, err := m.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sctest.Transfer(cp, cli, SCMapMT)
	if err != nil {
		t.Fatal(err)
	}
	c := SCMapClient{Obj: obj}

	lib, err := c.Lookup(4)
	if err != nil || lib != "replicon.so" {
		t.Fatalf("Lookup = %q, %v", lib, err)
	}
	if _, err := c.Lookup(99); stubs.CodeOf(err) != CodeNoMapping {
		t.Fatalf("Lookup(99) = %v, want no-mapping", err)
	}
	if err := c.Publish(7, "shm.so"); err != nil {
		t.Fatal(err)
	}
	if lib, err := c.Lookup(7); err != nil || lib != "shm.so" {
		t.Fatalf("Lookup(7) = %q, %v", lib, err)
	}

	// Plugs into the loader as a core.NameService.
	var ns core.NameService = c
	if lib, err := ns.LibraryFor(4); err != nil || lib != "replicon.so" {
		t.Fatalf("LibraryFor = %q, %v", lib, err)
	}
}

func TestServerRevoke(t *testing.T) {
	_, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)
	s.Revoke()
	if _, err := ctx.Resolve("x", core.GenericMT); err == nil {
		t.Fatal("resolve succeeded after revoke")
	}
}

func TestConcurrentBindResolve(t *testing.T) {
	k, srv, cli := setup(t)
	s := NewServer(srv)
	ctx := clientContext(t, s, cli)

	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			for i := 0; i < 20; i++ {
				env, err := sctest.NewEnv(k, "x", singleton.Register)
				if err != nil {
					done <- err
					return
				}
				obj, _ := singleton.Export(env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
				name := string(rune('a'+w)) + "-svc"
				if err := ctx.Bind(name, obj, true); err != nil {
					done <- err
					return
				}
				got, err := ctx.Resolve(name, sctest.CounterMT)
				if err != nil {
					done <- err
					return
				}
				if _, err := sctest.Get(got); err != nil {
					done <- err
					return
				}
				if _, err := ctx.List(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHandle(t *testing.T) {
	_, srv, _ := setup(t)
	s := NewServer(srv)
	h, err := s.Handle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.List(); err != nil {
		t.Fatal(err)
	}
}

// TestListRefusesHugeCount: a List reply that declares 2^40 names is
// refused, not sized by the count.
func TestListRefusesHugeCount(t *testing.T) {
	_, srv, cli := setup(t)
	obj, _ := singleton.Export(srv, ContextMT, stubs.SkeletonFunc(func(_ core.OpNum, _, results *buffer.Buffer) error {
		results.WriteUvarint(1 << 40)
		return nil
	}), nil)
	remote, err := sctest.Transfer(obj, cli, ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Context{Obj: remote}).List(); !errors.Is(err, buffer.ErrBadCount) {
		t.Fatalf("List = %v, want ErrBadCount", err)
	}
}
