package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/reconnectable"
	"repro/internal/subcontracts/replicon"
	"repro/internal/subcontracts/shm"
	"repro/internal/subcontracts/singleton"
)

// netMachine is one simulated host with a network door server, a naming
// server, and a cache manager (the E6/E7 fixtures).
type netMachine struct {
	k   *kernel.Kernel
	net *netd.Server
	ns  *naming.Server
	mgr *cache.Manager
}

func newNetMachine(b *testing.B, name string) *netMachine {
	b.Helper()
	k := kernel.New(name)
	srv, err := netd.Start(k.NewDomain(name+"-netd"), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	m := &netMachine{k: k, net: srv}
	m.ns = naming.NewServer(m.env(b, name+"-naming"))
	m.mgr = cache.NewManager(m.env(b, name+"-cachemgr"))
	cp, err := m.mgr.Object().Copy()
	if err != nil {
		b.Fatal(err)
	}
	h, err := m.ns.Handle()
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Bind("cachemgr", cp, false); err != nil {
		b.Fatal(err)
	}
	return m
}

func (m *netMachine) env(b *testing.B, name string) *core.Env {
	b.Helper()
	e, err := sctest.NewEnv(m.k, name, filesys.RegisterAll)
	if err != nil {
		b.Fatal(err)
	}
	if m.ns != nil {
		cp, err := m.ns.Object().Copy()
		if err != nil {
			b.Fatal(err)
		}
		ctx, err := sctest.Transfer(cp, e, naming.ContextMT)
		if err != nil {
			b.Fatal(err)
		}
		e.Set(caching.LocalContextVar, ctx)
		cp2, err := m.ns.Object().Copy()
		if err != nil {
			b.Fatal(err)
		}
		ctx2, err := sctest.Transfer(cp2, e, naming.ContextMT)
		if err != nil {
			b.Fatal(err)
		}
		e.Set(reconnectable.ContextVar, ctx2)
	}
	return e
}

// ---------------------------------------------------------------------
// E6 — §8.2, Figure 5: the caching subcontract's win. Reads served by the
// machine-local cache manager vs reads crossing the (loopback-TCP) wire
// every time.

// e6Setup serves one file from machine A to a client env on machine B,
// returning the client-side file.
func e6Setup(b *testing.B, flavor string) filesys.File {
	b.Helper()
	a := newNetMachine(b, "A")
	bb := newNetMachine(b, "B")

	var svc *filesys.Service
	switch flavor {
	case "caching":
		svc = filesys.NewCachingService(a.env(b, "fileserver"), "cachemgr")
	case "plain":
		svc = filesys.NewService(a.env(b, "fileserver"))
	default:
		b.Fatalf("unknown flavor %q", flavor)
	}
	a.net.PublishRoot("fs", svc.Object())

	cli := bb.env(b, "client")
	fsObj, err := bb.net.ImportRootObject(cli, a.net.Addr(), "fs", filesys.FileSystemMT)
	if err != nil {
		b.Fatal(err)
	}
	fs := filesys.FileSystem{Obj: fsObj}
	f, err := fs.Create("bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write(0, make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	return f
}

// E6Read benchmarks repeated 1KiB reads of a remote file. With the
// caching flavor every read after the first is a local cache hit; with
// the plain flavor every read crosses the wire.
func E6Read(flavor string) func(*testing.B) {
	return func(b *testing.B) {
		f := e6Setup(b, flavor)
		if _, err := f.Read(0, 1024); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Read(0, 1024); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E6Mixed benchmarks a read-heavy workload (one write per 19 reads),
// exercising invalidation.
func E6Mixed(flavor string) func(*testing.B) {
	return func(b *testing.B) {
		f := e6Setup(b, flavor)
		payload := make([]byte, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%20 == 19 {
				if _, err := f.Write(0, payload); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if _, err := f.Read(0, 1024); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// E7 — §8.3: reconnectable recovery latency: the first call after a
// server crash+restart pays resolution and retry.

// E7ReconnectFirstCall measures that first call.
func E7ReconnectFirstCall(b *testing.B) {
	m := newNetMachine(b, "m")
	srvEnv := m.env(b, "server")
	h, err := m.ns.Handle()
	if err != nil {
		b.Fatal(err)
	}
	ctr := &sctest.Counter{}
	obj, door, err := reconnectable.Export(srvEnv, sctest.CounterMT, ctr.Skeleton(), "svc", h)
	if err != nil {
		b.Fatal(err)
	}
	cli := m.env(b, "client")
	remote, err := sctest.Transfer(obj, cli, sctest.CounterMT)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		door.Revoke()
		_, door, err = reconnectable.Export(srvEnv, sctest.CounterMT, ctr.Skeleton(), "svc", h)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sctest.Get(remote); err != nil {
			b.Fatal(err)
		}
	}
}

// E7SteadyState is the baseline: the same object with no crash.
func E7SteadyState(b *testing.B) {
	m := newNetMachine(b, "m")
	srvEnv := m.env(b, "server")
	h, err := m.ns.Handle()
	if err != nil {
		b.Fatal(err)
	}
	ctr := &sctest.Counter{}
	obj, _, err := reconnectable.Export(srvEnv, sctest.CounterMT, ctr.Skeleton(), "svc", h)
	if err != nil {
		b.Fatal(err)
	}
	cli := m.env(b, "client")
	remote, err := sctest.Transfer(obj, cli, sctest.CounterMT)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sctest.Get(remote); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E9 — §5.1.4: the invoke_preamble shared-buffer optimization.

// E9Echo benchmarks an echo of the given payload through a shm
// subcontract in the given mode (shm.Direct or shm.CopyAfter).
func E9Echo(mode shm.Mode, payload int) func(*testing.B) {
	return func(b *testing.B) {
		k := kernel.New("bench")
		sc := shm.New(mode)
		srv, err := sctest.NewEnv(k, "server", sc.Register)
		if err != nil {
			b.Fatal(err)
		}
		cli, err := sctest.NewEnv(k, "client", sc.Register)
		if err != nil {
			b.Fatal(err)
		}
		obj, _ := sc.Export(srv, echoMT, echoSkeleton(), nil)
		remote, err := sctest.Transfer(obj, cli, echoMT)
		if err != nil {
			b.Fatal(err)
		}
		p := make([]byte, payload)
		b.SetBytes(int64(payload))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := callEcho(remote, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// E10 — §6.1/§6.2: compatible-subcontract dispatch and dynamic discovery.

// e10Template builds a replicon object and the shared library store.
func e10Template(b *testing.B) (*core.Object, *core.LibraryStore, *kernel.Kernel) {
	b.Helper()
	k := kernel.New("bench")
	g := replicon.NewGroup()
	for i := 0; i < 2; i++ {
		env, err := sctest.NewEnv(k, "replica", replicon.Register)
		if err != nil {
			b.Fatal(err)
		}
		g.Join(env, fmt.Sprintf("r%d", i), (&sctest.Counter{}).Skeleton())
	}
	exp, err := sctest.NewEnv(k, "exporter", replicon.Register)
	if err != nil {
		b.Fatal(err)
	}
	store := core.NewLibraryStore()
	store.Install("/usr/lib/subcontracts", replicon.LibraryName, replicon.Register)
	return g.Export(exp, sctest.CounterMT), store, k
}

// E10DiscoveryCold measures the first unmarshal of an unknown subcontract
// in a freshly linked domain: registry miss → name lookup → simulated
// dynamic link → unmarshal.
func E10DiscoveryCold(b *testing.B) {
	obj, store, k := e10Template(b)
	names := core.NameServiceFunc(func(core.ID) (string, error) { return replicon.LibraryName, nil })
	buf := buffer.New(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf.Reset()
		if err := obj.MarshalCopy(buf); err != nil {
			b.Fatal(err)
		}
		env, err := sctest.NewEnv(k, "legacy", singleton.Register)
		if err != nil {
			b.Fatal(err)
		}
		env.Registry.SetLoader(&core.Loader{Names: names, Store: store, SearchPath: []string{"/usr/lib/subcontracts"}})
		b.StartTimer()
		got, err := core.Unmarshal(env, sctest.CounterMT, buf)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := got.Consume(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// E10DiscoveryWarm is the same unmarshal once the subcontract is linked.
func E10DiscoveryWarm(b *testing.B) {
	obj, _, k := e10Template(b)
	env, err := sctest.NewEnv(k, "warm", singleton.Register, replicon.Register)
	if err != nil {
		b.Fatal(err)
	}
	buf := buffer.New(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := obj.MarshalCopy(buf); err != nil {
			b.Fatal(err)
		}
		got, err := core.Unmarshal(env, sctest.CounterMT, buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := got.Consume(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E12 — §9.3: wire-size overhead of the subcontract header per
// transmitted object.

// WireSizes reports (header bytes, total bytes) for a marshalled
// singleton object, computed against the raw door-transfer baseline.
func WireSizes() (headerBytes, singletonBytes, rawBytes int, err error) {
	k := kernel.New("wire")
	srv := core.NewEnv(k.NewDomain("srv"))
	if err := singleton.Register(srv.Registry); err != nil {
		return 0, 0, 0, err
	}
	obj, _ := singleton.Export(srv, echoMT, echoSkeleton(), nil)

	objBuf := buffer.New(64)
	if err := obj.MarshalCopy(objBuf); err != nil {
		return 0, 0, 0, err
	}
	defer kernel.ReleaseBufferDoors(objBuf)

	rawBuf := buffer.New(64)
	h, _ := srv.Domain.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) { return buffer.New(0), nil }, nil)
	if err := srv.Domain.MoveToBuffer(h, rawBuf); err != nil {
		return 0, 0, 0, err
	}
	defer kernel.ReleaseBufferDoors(rawBuf)

	return objBuf.Size() - rawBuf.Size(), objBuf.Size(), rawBuf.Size(), nil
}
