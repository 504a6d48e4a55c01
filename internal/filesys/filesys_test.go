package filesys

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/reconnectable"
)

// machine bundles a kernel with the services every flavor needs: a naming
// server and a cache manager bound under "cachemgr".
type machine struct {
	k   *kernel.Kernel
	ns  *naming.Server
	mgr *cache.Manager
}

func newMachine(t *testing.T, name string) *machine {
	t.Helper()
	k := kernel.New(name)
	nsEnv := env(t, k, name+"-naming")
	ns := naming.NewServer(nsEnv)
	mgrEnv := env(t, k, name+"-cachemgr")
	mgr := cache.NewManager(mgrEnv)
	cp, err := mgr.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	h, err := ns.Handle()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Bind("cachemgr", cp, false); err != nil {
		t.Fatal(err)
	}
	return &machine{k: k, ns: ns, mgr: mgr}
}

// env creates a domain with the full subcontract library set linked.
func env(t *testing.T, k *kernel.Kernel, name string) *core.Env {
	t.Helper()
	e, err := sctest.NewEnv(k, name, RegisterAll)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// clientEnv creates a client domain wired with naming contexts for the
// caching and reconnectable subcontracts.
func (m *machine) clientEnv(t *testing.T, name string) *core.Env {
	t.Helper()
	e := env(t, m.k, name)
	for _, slot := range []string{caching.LocalContextVar, reconnectable.ContextVar} {
		cp, err := m.ns.Object().Copy()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := sctest.Transfer(cp, e, naming.ContextMT)
		if err != nil {
			t.Fatal(err)
		}
		e.Set(slot, obj)
	}
	e.Set(reconnectable.PolicyVar, &reconnectable.Policy{MaxAttempts: 50, Backoff: time.Millisecond})
	return e
}

// mount exposes a service's file_system object in a client domain.
func mount(t *testing.T, s *Service, cli *core.Env) FileSystem {
	t.Helper()
	cp, err := s.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sctest.Transfer(cp, cli, FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	return FileSystem{Obj: obj}
}

func TestPlainService(t *testing.T) {
	m := newMachine(t, "m1")
	srv := env(t, m.k, "fileserver")
	cli := m.clientEnv(t, "client")
	fs := mount(t, NewService(srv), cli)

	f, err := fs.Create("motd")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(0, []byte("hello, spring")); err != nil || n != 13 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if sz, err := f.Size(); err != nil || sz != 13 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if data, err := f.Read(7, 6); err != nil || string(data) != "spring" {
		t.Fatalf("Read = %q, %v", data, err)
	}
	if v, err := f.Version(); err != nil || v != 1 {
		t.Fatalf("Version = %d, %v", v, err)
	}
	if name, err := f.Name(); err != nil || name != "motd" {
		t.Fatalf("Name = %q, %v", name, err)
	}
	// stat() returns the IDL struct by value.
	if info, err := f.Stat(); err != nil || info.Name != "motd" || info.Size != 13 || info.Version != 1 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}

	// A second open sees the same state through a distinct object.
	f2, err := fs.Open("motd")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := f2.Read(0, 5); err != nil || string(data) != "hello" {
		t.Fatalf("second open Read = %q, %v", data, err)
	}

	names, err := fs.List()
	if err != nil || len(names) != 1 || names[0] != "motd" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := fs.Remove("motd"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("motd"); !IsNotFound(err) {
		t.Fatalf("Open after remove = %v, want not-found", err)
	}
	if _, err := fs.Open("ghost"); !IsNotFound(err) {
		t.Fatalf("Open(ghost) = %v", err)
	}
	if _, err := fs.Create("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("x"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestReadWriteEdgeCases(t *testing.T) {
	m := newMachine(t, "m1")
	srv := env(t, m.k, "fileserver")
	cli := m.clientEnv(t, "client")
	fs := mount(t, NewService(srv), cli)
	f, err := fs.Create("edge")
	if err != nil {
		t.Fatal(err)
	}
	// Sparse write extends with zeros.
	if _, err := f.Write(4, []byte{9}); err != nil {
		t.Fatal(err)
	}
	data, err := f.Read(0, 5)
	if err != nil || !bytes.Equal(data, []byte{0, 0, 0, 0, 9}) {
		t.Fatalf("sparse read = %v, %v", data, err)
	}
	// Reads past the end are empty.
	if data, err := f.Read(100, 10); err != nil || len(data) != 0 {
		t.Fatalf("past-end read = %v, %v", data, err)
	}
	// Writes at negative offsets, or ending past the size ceiling, are
	// remote exceptions; reads there are empty.
	for _, off := range []int64{-1, 1 << 40} {
		if n, err := f.Write(off, []byte{1}); stubs.CodeOf(err) != CodeBadOffset || n != 0 {
			t.Fatalf("write at %d = %d, %v; want CodeBadOffset", off, n, err)
		}
	}
	if data, err := f.Read(-5, 3); err != nil || len(data) != 0 {
		t.Fatalf("negative read = %v, %v", data, err)
	}
}

func TestCachingFlavor(t *testing.T) {
	m := newMachine(t, "m1")
	srv := m.clientEnv(t, "fileserver") // server domain also needs contexts (unused but harmless)
	cli := m.clientEnv(t, "client")
	fs := mount(t, NewCachingService(srv, "cachemgr"), cli)

	f, err := fs.Create("cached")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}

	// The static result type of open is file; the dynamic type is
	// cacheable_file — narrow discovers the richer semantics (§6.3).
	cf, ok := NarrowCacheableFile(f.Obj)
	if !ok {
		t.Fatalf("narrow to cacheable_file failed; dynamic type %v", f.Obj.MT.Type)
	}
	if f.Obj.SC.Name() != "caching" {
		t.Fatalf("subcontract = %s", f.Obj.SC.Name())
	}

	// Repeated reads hit the local cache manager, not the server.
	if _, err := cf.Read(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Read(0, 3); err != nil {
		t.Fatal(err)
	}
	s := m.mgr.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss + 1 hit", s)
	}

	// A write invalidates; the next read sees fresh data.
	if _, err := cf.Write(0, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	data, err := cf.Read(0, 3)
	if err != nil || string(data) != "XYZ" {
		t.Fatalf("read after write = %q, %v (stale cache?)", data, err)
	}
	if err := cf.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedFlavor(t *testing.T) {
	m := newMachine(t, "m1")
	front := env(t, m.k, "fs-front")
	var replicas []*core.Env
	for i := 0; i < 3; i++ {
		replicas = append(replicas, env(t, m.k, "replica"))
	}
	rs := NewReplicatedService(front, replicas)
	cli := m.clientEnv(t, "client")
	fs := mount(t, rs.Service, cli)

	f, err := fs.Create("repl")
	if err != nil {
		t.Fatal(err)
	}
	rf, ok := NarrowReplicatedFile(f.Obj)
	if !ok {
		t.Fatalf("narrow to replicated_file failed; got %v via %s", f.Obj.MT.Type, f.Obj.SC.Name())
	}
	if n, err := rf.Replicas(); err != nil || n != 3 {
		t.Fatalf("Replicas = %d, %v", n, err)
	}
	if _, err := rf.Write(0, []byte("replicated data")); err != nil {
		t.Fatal(err)
	}

	// Crash the replica the client talks to; reads fail over.
	if err := rs.CrashReplica("repl", 0); err != nil {
		t.Fatal(err)
	}
	data, err := rf.Read(0, 10)
	if err != nil || string(data) != "replicated" {
		t.Fatalf("Read after crash = %q, %v", data, err)
	}
	if n, err := rf.Replicas(); err != nil || n != 2 {
		t.Fatalf("Replicas after crash = %d, %v", n, err)
	}
}

func TestReconnectableFlavor(t *testing.T) {
	m := newMachine(t, "m1")
	srv := env(t, m.k, "fileserver")
	srvCtx, err := m.ns.Handle()
	if err != nil {
		t.Fatal(err)
	}
	// The server resolves/binds in the same context objects the clients
	// use, but through its own handle.
	cp, err := srvCtx.Obj.Copy()
	if err != nil {
		t.Fatal(err)
	}
	srvSide, err := sctest.Transfer(cp, srv, naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewReconnectableService(srv, naming.Context{Obj: srvSide})

	cli := m.clientEnv(t, "client")
	fs := mount(t, rs.Service, cli)

	f, err := fs.Create("durable")
	if err != nil {
		t.Fatal(err)
	}
	if f.Obj.SC.Name() != "reconnectable" {
		t.Fatalf("subcontract = %s", f.Obj.SC.Name())
	}
	if _, err := f.Write(0, []byte("persistent")); err != nil {
		t.Fatal(err)
	}

	// Crash and restart the server; the client's next call transparently
	// reconnects and sees the state that survived in stable storage.
	rs.Crash()
	if err := rs.Restart(); err != nil {
		t.Fatal(err)
	}
	data, err := f.Read(0, 10)
	if err != nil || string(data) != "persistent" {
		t.Fatalf("Read after crash+restart = %q, %v", data, err)
	}
}

func TestFileObjectTravelsOnward(t *testing.T) {
	// A client passes an open file to another domain; the state follows
	// (Figure 4's life cycle: marshal consumes, the receiver invokes).
	m := newMachine(t, "m1")
	srv := env(t, m.k, "fileserver")
	cliA := m.clientEnv(t, "clientA")
	cliB := m.clientEnv(t, "clientB")
	fs := mount(t, NewService(srv), cliA)

	f, err := fs.Create("travel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, []byte("gift")); err != nil {
		t.Fatal(err)
	}
	moved, err := sctest.Transfer(f.Obj, cliB, FileMT)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Obj.Consumed() {
		t.Fatal("marshal did not consume the sender's object")
	}
	fb := File{Obj: moved}
	if data, err := fb.Read(0, 4); err != nil || string(data) != "gift" {
		t.Fatalf("moved file Read = %q, %v", data, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	m := newMachine(t, "m1")
	srv := env(t, m.k, "fileserver")
	fs := mount(t, NewService(srv), m.clientEnv(t, "mounter"))
	if _, err := fs.Create("shared"); err != nil {
		t.Fatal(err)
	}

	const writers = 8
	const writesPer = 25
	errs := make(chan error, writers)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			f, err := fs.Open("shared")
			if err != nil {
				errs <- err
				return
			}
			// Each writer owns a disjoint byte range.
			for i := 0; i < writesPer; i++ {
				if _, err := f.Write(int64(w), []byte{byte(w + 1)}); err != nil {
					errs <- err
					return
				}
				data, err := f.Read(int64(w), 1)
				if err != nil || len(data) != 1 || data[0] != byte(w+1) {
					errs <- fmt.Errorf("writer %d read back %v, %v", w, data, err)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	f, err := fs.Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.Version(); err != nil || v != writers*writesPer {
		t.Fatalf("version = %d, %v; want %d", v, err, writers*writesPer)
	}
}

func TestNarrowRejectsPlainFile(t *testing.T) {
	m := newMachine(t, "m1")
	srv := env(t, m.k, "fileserver")
	cli := m.clientEnv(t, "client")
	fs := mount(t, NewService(srv), cli)
	f, err := fs.Create("plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NarrowCacheableFile(f.Obj); ok {
		t.Fatal("plain file narrowed to cacheable_file")
	}
	if _, ok := NarrowFile(f.Obj); !ok {
		t.Fatal("file failed to narrow to its own type")
	}
}
