// Package integration exercises the full paper narrative across
// subsystems: the §7 object life cycle, the §6.2 dynamic-discovery
// protocol with its network name service and trusted search path, and
// multi-machine configurations over the network door servers.
package integration

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/cluster"
	"repro/internal/subcontracts/reconnectable"
	"repro/internal/subcontracts/replicon"
	"repro/internal/subcontracts/simplex"
	"repro/internal/subcontracts/singleton"
	"repro/internal/subcontracts/value"
)

// machine is one simulated host: kernel, network door server, naming
// server, cache manager, and a factory for application domains.
type machine struct {
	t   *testing.T
	k   *kernel.Kernel
	net *netd.Server
	ns  *naming.Server
	mgr *cache.Manager
}

func newMachine(t *testing.T, name string) *machine {
	t.Helper()
	k := kernel.New(name)
	netSrv, err := netd.Start(k.NewDomain(name+"-netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netSrv.Close() })

	m := &machine{t: t, k: k, net: netSrv}
	nsEnv := m.env(name + "-naming")
	m.ns = naming.NewServer(nsEnv)
	m.mgr = cache.NewManager(m.env(name + "-cachemgr"))
	cp, err := m.mgr.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.ns.Handle()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Bind("cachemgr", cp, false); err != nil {
		t.Fatal(err)
	}
	// The naming server's own domain stores bound objects, so it too
	// needs the machine-local context to unmarshal caching objects.
	selfCtx, err := m.ns.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	nsEnv.Set(caching.LocalContextVar, selfCtx)
	netSrv.PublishRoot("naming", m.ns.Object())
	return m
}

// env creates a domain with the full standard library set and the
// machine-local contexts wired.
func (m *machine) env(name string) *core.Env {
	m.t.Helper()
	e, err := sctest.NewEnv(m.k, name, filesys.RegisterAll, cluster.Register)
	if err != nil {
		m.t.Fatal(err)
	}
	if m.ns != nil {
		cp, err := m.ns.Object().Copy()
		if err != nil {
			m.t.Fatal(err)
		}
		ctx, err := sctest.Transfer(cp, e, naming.ContextMT)
		if err != nil {
			m.t.Fatal(err)
		}
		e.Set(caching.LocalContextVar, ctx)
	}
	return e
}

// TestLifecycleSimplex walks the §7 narrative: a fileserver creates a
// Spring object with the simplex subcontract, passes it to another
// address space as the result of a file_system operation, the client
// invokes methods, copies the object, sends the copy onward, and finally
// consumes everything — at which point the kernel notifies the server so
// it can clean up.
func TestLifecycleSimplex(t *testing.T) {
	m := newMachine(t, "m1")
	srvEnv := m.env("fileserver")
	cliEnv := m.env("client")
	otherEnv := m.env("other-app")

	unref := make(chan struct{})
	ctr := &sctest.Counter{}
	obj := simplex.Export(srvEnv, sctest.CounterMT, ctr.Skeleton(), func() { close(unref) })

	// Birth: no cross-domain resources yet.
	if simplex.HasDoor(obj) {
		t.Fatal("door created before first marshal")
	}

	// Transfer between address spaces (as a file_system reply would).
	remote, err := sctest.Transfer(obj, cliEnv, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	// Invocation: preamble (a no-op for simplex) + door call.
	if v, err := sctest.Add(remote, 10); err != nil || v != 10 {
		t.Fatalf("Add = %d, %v", v, err)
	}

	// Reproduction: a shallow copy designating the same state.
	cp, err := remote.Copy()
	if err != nil {
		t.Fatal(err)
	}
	// The copy travels onward to a third address space.
	moved, err := sctest.Transfer(cp, otherEnv, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Get(moved); err != nil || v != 10 {
		t.Fatalf("moved copy Get = %d, %v", v, err)
	}

	// Death: consuming every identifier triggers the unreferenced
	// notification so the server can clean up.
	if err := remote.Consume(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unref:
		t.Fatal("unreferenced fired early")
	case <-time.After(5 * time.Millisecond):
	}
	if err := moved.Consume(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("server never notified of object death")
	}
}

// TestDynamicDiscovery reproduces the §6.2 scenario end to end: a domain
// expecting a file-like object with the singleton subcontract instead
// receives a replicon object. The singleton unmarshal discovers the
// foreign identifier, the registry misses, the loader maps the identifier
// to replicon.so through the network name service (an SCMap object), the
// library is found on the trusted search path and linked in, and
// unmarshalling continues with the new code — all without the receiving
// program having been linked with any knowledge of replication.
func TestDynamicDiscovery(t *testing.T) {
	m := newMachine(t, "m1")

	// The network name service mapping subcontract ids to library names.
	scmap := naming.NewSCMapServer(m.env("scmap-server"))
	scmap.Publish(replicon.SC.ID(), replicon.LibraryName)

	// The shared library filesystem, with replicon.so installed in a
	// standard directory by the administrator.
	store := core.NewLibraryStore()
	store.Install("/usr/lib/subcontracts", replicon.LibraryName, replicon.Register)

	// A legacy client domain: linked ONLY with singleton, loader wired to
	// the name service and trusting only the standard directory.
	legacy, err := sctest.NewEnv(m.k, "legacy-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := scmap.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	scmapObj, err := sctest.Transfer(cp, legacy, naming.SCMapMT)
	if err != nil {
		t.Fatal(err)
	}
	legacy.Registry.SetLoader(&core.Loader{
		Names:      naming.SCMapClient{Obj: scmapObj},
		Store:      store,
		SearchPath: []string{"/usr/lib/subcontracts"},
	})

	// A replicated counter, marshalled toward the legacy domain.
	g := replicon.NewGroup()
	ctr := &sctest.Counter{}
	for i := 0; i < 2; i++ {
		renv, err := sctest.NewEnv(m.k, "replica", replicon.Register)
		if err != nil {
			t.Fatal(err)
		}
		g.Join(renv, "r", ctr.Skeleton())
	}
	exporter, err := sctest.NewEnv(m.k, "exporter", replicon.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj := g.Export(exporter, sctest.CounterMT)

	buf := buffer.New(64)
	if err := obj.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	// The stubs expect the counter type, whose default subcontract is
	// singleton — exactly the paper's file/replicated_file story.
	got, err := core.Unmarshal(legacy, sctest.CounterMT, buf)
	if err != nil {
		t.Fatalf("discovery failed: %v", err)
	}
	if got.SC.ID() != replicon.SC.ID() {
		t.Fatalf("unmarshalled via %s, want replicon", got.SC.Name())
	}
	if v, err := sctest.Add(got, 3); err != nil || v != 3 {
		t.Fatalf("invoke through discovered subcontract = %d, %v", v, err)
	}
	_, misses, loads := legacy.Registry.Stats()
	if misses != 1 || loads != 1 {
		t.Fatalf("registry stats: misses=%d loads=%d, want 1/1", misses, loads)
	}
}

// TestDiscoveryRefusesUntrustedLibrary checks the security half of §6.2: a
// library present only outside the trusted search path is not loaded.
func TestDiscoveryRefusesUntrustedLibrary(t *testing.T) {
	m := newMachine(t, "m1")
	store := core.NewLibraryStore()
	store.Install("/home/mallory", replicon.LibraryName, replicon.Register)

	legacy, err := sctest.NewEnv(m.k, "legacy-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	legacy.Registry.SetLoader(&core.Loader{
		Names:      core.NameServiceFunc(func(core.ID) (string, error) { return replicon.LibraryName, nil }),
		Store:      store,
		SearchPath: []string{"/usr/lib/subcontracts"},
	})

	g := replicon.NewGroup()
	renv, err := sctest.NewEnv(m.k, "replica", replicon.Register)
	if err != nil {
		t.Fatal(err)
	}
	g.Join(renv, "r", (&sctest.Counter{}).Skeleton())
	exporter, err := sctest.NewEnv(m.k, "exporter", replicon.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj := g.Export(exporter, sctest.CounterMT)

	buf := buffer.New(64)
	if err := obj.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Unmarshal(legacy, sctest.CounterMT, buf); !errors.Is(err, core.ErrUntrustedLibrary) {
		t.Fatalf("Unmarshal = %v, want ErrUntrustedLibrary", err)
	}
}

// TestCachingFileSystemAcrossMachines is Figure 5 over a real wire:
// machine A serves cacheable files; a client on machine B transparently
// invokes through B's cache manager, and repeated reads never cross the
// network.
func TestCachingFileSystemAcrossMachines(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	fsSrv := filesys.NewCachingService(a.env("fileserver"), "cachemgr")
	a.net.PublishRoot("fs", fsSrv.Object())

	cliB := b.env("clientB")
	fsObjB, err := b.net.ImportRootObject(cliB, a.net.Addr(), "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fsB := filesys.FileSystem{Obj: fsObjB}

	f, err := fsB.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, []byte("cross-machine bytes")); err != nil {
		t.Fatal(err)
	}
	if f.Obj.SC.Name() != "caching" {
		t.Fatalf("file subcontract on B = %s", f.Obj.SC.Name())
	}

	// Warm the cache, then read repeatedly.
	for i := 0; i < 4; i++ {
		data, err := f.Read(0, 5)
		if err != nil || string(data) != "cross" {
			t.Fatalf("read %d = %q, %v", i, data, err)
		}
	}
	// The cache manager on B served the repeats.
	sb := b.mgr.Stats()
	if sb.Misses != 1 || sb.Hits != 3 {
		t.Fatalf("B cache stats = %+v, want 1 miss + 3 hits", sb)
	}
	// A's manager was never involved (the file was exported on A and
	// invoked from B).
	sa := a.mgr.Stats()
	if sa.Hits+sa.Misses != 0 {
		t.Fatalf("A cache stats = %+v, want untouched", sa)
	}

	// Writes invalidate on B and reach A.
	if _, err := f.Write(0, []byte("CROSS")); err != nil {
		t.Fatal(err)
	}
	data, err := f.Read(0, 5)
	if err != nil || string(data) != "CROSS" {
		t.Fatalf("read after write = %q, %v", data, err)
	}
}

// TestReplicatedFileAcrossMachines serves a replicated file from machine A
// to a client on machine B; a replica crash on A is invisible on B.
func TestReplicatedFileAcrossMachines(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	front := a.env("fs-front")
	replicas := []*core.Env{a.env("r0"), a.env("r1"), a.env("r2")}
	rs := filesys.NewReplicatedService(front, replicas)
	a.net.PublishRoot("fs", rs.Object())

	cliB := b.env("clientB")
	fsObjB, err := b.net.ImportRootObject(cliB, a.net.Addr(), "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fsB := filesys.FileSystem{Obj: fsObjB}

	f, err := fsB.Create("repl")
	if err != nil {
		t.Fatal(err)
	}
	rf, ok := filesys.NarrowReplicatedFile(f.Obj)
	if !ok {
		t.Fatalf("narrow failed: %v via %s", f.Obj.MT.Type, f.Obj.SC.Name())
	}
	if _, err := rf.Write(0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := rs.CrashReplica("repl", 0); err != nil {
		t.Fatal(err)
	}
	data, err := rf.Read(0, 5)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read after replica crash = %q, %v", data, err)
	}
	if n, err := rf.Replicas(); err != nil || n != 2 {
		t.Fatalf("Replicas = %d, %v", n, err)
	}
}

// TestReconnectableAcrossMachines runs the §8.3 story over the wire: the
// file server on machine A crashes and restarts; the client on machine B
// re-resolves through A's naming service (which survived) and quietly
// recovers.
func TestReconnectableAcrossMachines(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	srvEnv := a.env("fileserver")
	srvCtxCp, err := a.ns.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	srvCtx, err := sctest.Transfer(srvCtxCp, srvEnv, naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	rs := filesys.NewReconnectableService(srvEnv, naming.Context{Obj: srvCtx})
	a.net.PublishRoot("fs", rs.Object())

	cliB := b.env("clientB")
	ctxObjB, err := b.net.ImportRootObject(cliB, a.net.Addr(), "naming", naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	cliB.Set(reconnectable.ContextVar, ctxObjB)

	fsObjB, err := b.net.ImportRootObject(cliB, a.net.Addr(), "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fsB := filesys.FileSystem{Obj: fsObjB}
	f, err := fsB.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	if f.Obj.SC.Name() != "reconnectable" {
		t.Fatalf("subcontract on B = %s", f.Obj.SC.Name())
	}
	if _, err := f.Write(0, []byte("survives")); err != nil {
		t.Fatal(err)
	}

	rs.Crash()
	if err := rs.Restart(); err != nil {
		t.Fatal(err)
	}
	data, err := f.Read(0, 8)
	if err != nil || string(data) != "survives" {
		t.Fatalf("read after cross-machine crash+restart = %q, %v", data, err)
	}
}

// TestValueObjectOutlivesServer sends a pass-by-value object from machine
// A to machine B: the state travels with it, so invocations on B never
// touch the network — the object keeps working after machine A vanishes
// entirely (§2.1/§3.2: objects that are not server-based).
func TestValueObjectOutlivesServer(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	aEnv, err := sctest.NewEnv(a.k, "producer", filesys.RegisterAll, value.Register)
	if err != nil {
		t.Fatal(err)
	}
	bEnv, err := sctest.NewEnv(b.k, "consumer", filesys.RegisterAll, value.Register)
	if err != nil {
		t.Fatal(err)
	}

	obj := value.New(aEnv, noteMT, []byte("portable state"))
	a.net.PublishRoot("note", obj)
	got, err := b.net.ImportRootObject(bEnv, a.net.Addr(), "note", noteMT)
	if err != nil {
		t.Fatal(err)
	}
	if got.SC.Name() != "value" {
		t.Fatalf("subcontract = %s", got.SC.Name())
	}

	// Machine A disappears completely.
	a.net.Close()

	// The object still works: its state lives on B.
	var text string
	err = stubs.Call(got, 0, nil, func(buf *buffer.Buffer) error {
		var err error
		text, err = buf.ReadString()
		return err
	})
	if err != nil || text != "portable state" {
		t.Fatalf("invoke after server death = %q, %v", text, err)
	}
}

// noteMT is a one-op value type: 0 read() -> string.
const noteType core.TypeID = "integration.note"

var noteMT = &core.MTable{Type: noteType, DefaultSC: 11, Ops: []string{"read"}}

func init() {
	core.MustRegisterType(noteType, core.ObjectType)
	core.MustRegisterMTable(noteMT)
	value.RegisterHandler(noteType, value.HandlerFunc(
		func(state []byte, op core.OpNum, args, results *buffer.Buffer) ([]byte, error) {
			if op != 0 {
				return nil, stubs.ErrBadOp
			}
			results.WriteString(string(state))
			return state, nil
		}))
}

// TestClusterAcrossMachines serves many cluster objects from machine A to
// a client on machine B: one door (and therefore one netd export entry)
// backs all of them, and tag dispatch still reaches the right object
// through the proxy.
func TestClusterAcrossMachines(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	srvEnv := a.env("cluster-server")
	s := cluster.NewServer(srvEnv)
	const n = 20
	ctrs := make([]*sctest.Counter, n)
	ns := naming.NewServer(a.env("cluster-naming"))
	h, err := ns.Handle()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ctrs[i] = &sctest.Counter{}
		obj, err := s.Export(sctest.CounterMT, ctrs[i].Skeleton())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Bind(fmt.Sprintf("c%02d", i), obj, false); err != nil {
			t.Fatal(err)
		}
	}
	a.net.PublishRoot("cluster-naming", ns.Object())

	cli := b.env("clientB")
	ctxObj, err := b.net.ImportRootObject(cli, a.net.Addr(), "cluster-naming", naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	ctx := naming.Context{Obj: ctxObj}
	for i := 0; i < n; i++ {
		obj, err := ctx.Resolve(fmt.Sprintf("c%02d", i), sctest.CounterMT)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sctest.Add(obj, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range ctrs {
		if c.Value() != int64(i+1) {
			t.Fatalf("counter %d = %d (cross-machine tag cross-talk)", i, c.Value())
		}
	}
}

// TestMixedSubcontractsOneNamingContext binds objects with five different
// subcontracts into one naming context and resolves/invokes them all —
// "these different object mechanisms are all on a par with one another"
// (§10).
func TestMixedSubcontractsOneNamingContext(t *testing.T) {
	m := newMachine(t, "m1")
	h, err := m.ns.Handle()
	if err != nil {
		t.Fatal(err)
	}

	ctrs := make(map[string]*sctest.Counter)

	// singleton
	{
		env := m.env("s1")
		ctr := &sctest.Counter{}
		ctrs["singleton"] = ctr
		obj, _ := singleton.Export(env, sctest.CounterMT, ctr.Skeleton(), nil)
		if err := h.Bind("singleton", obj, false); err != nil {
			t.Fatal(err)
		}
	}
	// simplex
	{
		env := m.env("s2")
		ctr := &sctest.Counter{}
		ctrs["simplex"] = ctr
		obj := simplex.Export(env, sctest.CounterMT, ctr.Skeleton(), nil)
		if err := h.Bind("simplex", obj, false); err != nil {
			t.Fatal(err)
		}
	}
	// replicon
	{
		g := replicon.NewGroup()
		ctr := &sctest.Counter{}
		ctrs["replicon"] = ctr
		for i := 0; i < 2; i++ {
			g.Join(m.env("rep"), "r", ctr.Skeleton())
		}
		obj := g.Export(m.env("rep-exporter"), sctest.CounterMT)
		if err := h.Bind("replicon", obj, false); err != nil {
			t.Fatal(err)
		}
	}
	// caching
	{
		env := m.env("s3")
		ctr := &sctest.Counter{}
		ctrs["caching"] = ctr
		obj, _ := caching.Export(env, sctest.CounterMT, ctr.Skeleton(), "cachemgr",
			cache.NewOpSet(sctest.OpGet), cache.NewOpSet(sctest.OpAdd), nil)
		if err := h.Bind("caching", obj, false); err != nil {
			t.Fatal(err)
		}
	}

	cli := m.env("client")
	ctxCp, err := m.ns.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	ctxObj, err := sctest.Transfer(ctxCp, cli, naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	ctx := naming.Context{Obj: ctxObj}

	for _, name := range []string{"singleton", "simplex", "replicon", "caching"} {
		obj, err := ctx.Resolve(name, sctest.CounterMT)
		if err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
		if v, err := sctest.Add(obj, 1); err != nil || v != 1 {
			t.Fatalf("%s: Add = %d, %v", name, v, err)
		}
		if ctrs[name].Value() != 1 {
			t.Fatalf("%s: server state = %d", name, ctrs[name].Value())
		}
	}
}
