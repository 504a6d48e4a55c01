package integration

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/reconnectable"
)

// Fault tests: subcontracts layered over the network door servers must
// recover from the failures internal/faultnet injects — the whole point
// of classifying every transport failure as retryable.

// fastCfg is a liveness configuration scaled for tests: heartbeats in
// tens of milliseconds, a grace period that outlasts the injected
// partitions, and call/dial timeouts short enough that retry loops spin
// quickly.
func fastCfg() netd.Config {
	return netd.Config{
		CallTimeout:       200 * time.Millisecond,
		DialTimeout:       100 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		LeaseGrace:        2 * time.Second,
	}
}

// newFaultMachine is newMachine with explicit netd configuration; if fn
// is non-nil the machine's outbound dials run under its fault control.
func newFaultMachine(t *testing.T, name string, fn *faultnet.Net, cfg netd.Config) *machine {
	t.Helper()
	if fn != nil {
		cfg.Transport = netd.FuncTransport{DialFunc: fn.Dialer(nil)}
	}
	k := kernel.New(name)
	netSrv, err := netd.Start(k.NewDomain(name+"-netd"), "127.0.0.1:0", netd.With(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netSrv.Close() })

	m := &machine{t: t, k: k, net: netSrv}
	nsEnv := m.env(name + "-naming")
	m.ns = naming.NewServer(nsEnv)
	netSrv.PublishRoot("naming", m.ns.Object())
	return m
}

// TestReconnectableBridgesTransientPartition partitions the client off
// mid-session for less than the lease grace period: every failed call is
// classified retryable, so the reconnectable subcontract's retry loop
// quietly bridges the outage and the read completes after the heal — no
// re-resolve visible to the application, no state lost.
func TestReconnectableBridgesTransientPartition(t *testing.T) {
	fn := faultnet.New()
	a := newFaultMachine(t, "A", nil, fastCfg())
	b := newFaultMachine(t, "B", fn, fastCfg())

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
	if _, err := f.Write(0, []byte("survives")); err != nil {
		t.Fatal(err)
	}

	// Partition for 300ms — well inside the 2s grace, so no lease is
	// reclaimed and no proxy poisoned; the session survives.
	fn.Partition()
	go func() {
		time.Sleep(300 * time.Millisecond)
		fn.Heal()
	}()

	start := time.Now()
	data, err := f.Read(0, 8)
	if err != nil || string(data) != "survives" {
		t.Fatalf("read across transient partition = %q, %v", data, err)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("read finished in %v — partition never bit", elapsed)
	}
}

// TestReconnectableRebootstrapsAfterLeaseLoss partitions the client off
// for LONGER than the grace period: the exporter reclaims the session's
// references and the client's proxies are poisoned, so recovery requires
// a fresh bootstrap import — after which everything works again. This is
// the documented containment contract: a long partition looks exactly
// like a server crash.
func TestReconnectableRebootstrapsAfterLeaseLoss(t *testing.T) {
	fn := faultnet.New()
	cfg := fastCfg()
	cfg.LeaseGrace = 150 * time.Millisecond
	a := newFaultMachine(t, "A", nil, cfg)
	b := newFaultMachine(t, "B", fn, cfg)

	srvEnv := a.env("fileserver")
	fsSrv := filesys.NewService(srvEnv)
	a.net.PublishRoot("fs", fsSrv.Object())

	cliB := b.env("clientB")
	fsObjB, err := b.net.ImportRootObject(cliB, a.net.Addr(), "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fsB := filesys.FileSystem{Obj: fsObjB}
	if _, err := fsB.Create("doomed"); err != nil {
		t.Fatal(err)
	}

	fn.Partition()
	// The old fs proxy must end up failing fast and retryably.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := fsB.Create("x")
		if err != nil {
			if !core.Retryable(err) {
				t.Fatalf("partition-time error not retryable: %v", err)
			}
			start := time.Now()
			_, err2 := fsB.Create("x")
			if err2 != nil && time.Since(start) < 50*time.Millisecond {
				break // failing fast now
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("calls never started failing fast")
		}
		time.Sleep(10 * time.Millisecond)
	}

	fn.Heal()
	// A fresh bootstrap import recovers; the server reclaimed the old
	// session's state in the meantime.
	var fresh filesys.FileSystem
	ok := false
	for attempt := 0; attempt < 100 && !ok; attempt++ {
		obj, err := b.net.ImportRootObject(cliB, a.net.Addr(), "fs", filesys.FileSystemMT)
		if err == nil {
			fresh = filesys.FileSystem{Obj: obj}
			ok = true
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatal("re-bootstrap never succeeded after heal")
	}
	f, err := fresh.Create("after")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if data, err := f.Read(0, 2); err != nil || string(data) != "ok" {
		t.Fatalf("read after re-bootstrap = %q, %v", data, err)
	}
}

// TestClientDeathReclaimsFileServerState kills a client machine that
// holds open files on a file server: within one grace period the
// server's netd export table returns to its pre-connection state — the
// per-file references the dead client held are reclaimed, firing the
// same unreferenced path a graceful release would have.
func TestClientDeathReclaimsFileServerState(t *testing.T) {
	cfg := fastCfg()
	cfg.LeaseGrace = 150 * time.Millisecond
	a := newFaultMachine(t, "A", nil, cfg)
	b := newFaultMachine(t, "B", nil, cfg)

	fsSrv := filesys.NewService(a.env("fileserver"))
	a.net.PublishRoot("fs", fsSrv.Object())
	before := a.net.Exports()

	cliB := b.env("clientB")
	fsObjB, err := b.net.ImportRootObject(cliB, a.net.Addr(), "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fsB := filesys.FileSystem{Obj: fsObjB}
	for _, name := range []string{"one", "two", "three"} {
		f, err := fsB.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(0, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if a.net.Exports() <= before {
		t.Fatalf("exports did not grow with open files: %d", a.net.Exports())
	}

	// Ungraceful client death: no releases are ever sent.
	b.net.Close()

	deadline := time.Now().Add(3 * time.Second)
	for a.net.Exports() != before {
		if time.Now().After(deadline) {
			t.Fatalf("exports never returned to baseline: %d, want %d",
				a.net.Exports(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := a.net.Sessions(); got != 0 {
		t.Fatalf("dead client's session survived: %d", got)
	}
}

// TestCachingServesReadsThroughPartition: a caching-subcontract file
// whose reads are cached on the client machine keeps serving those reads
// while the wire to the file server is partitioned — cache hits never
// cross the network — while uncached operations fail retryably.
func TestCachingServesReadsThroughPartition(t *testing.T) {
	fn := faultnet.New()
	a := newMachine(t, "A")

	// Machine B with fault-controlled dials and the full cache plumbing.
	k := kernel.New("B")
	cfg := fastCfg()
	cfg.Transport = netd.FuncTransport{DialFunc: fn.Dialer(nil)}
	netSrv, err := netd.Start(k.NewDomain("B-netd"), "127.0.0.1:0", netd.With(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netSrv.Close() })
	b := &machine{t: t, k: k, net: netSrv}
	nsEnv := b.env("B-naming")
	b.ns = naming.NewServer(nsEnv)
	b.mgr = cache.NewManager(b.env("B-cachemgr"))
	cp, err := b.mgr.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.ns.Handle()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Bind("cachemgr", cp, false); err != nil {
		t.Fatal(err)
	}
	selfCtx, err := b.ns.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	nsEnv.Set(caching.LocalContextVar, selfCtx)
	netSrv.PublishRoot("naming", b.ns.Object())

	fsSrv := filesys.NewCachingService(a.env("fileserver"), "cachemgr")
	a.net.PublishRoot("fs", fsSrv.Object())

	cliB := b.env("clientB")
	fsObjB, err := b.net.ImportRootObject(cliB, a.net.Addr(), "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fsB := filesys.FileSystem{Obj: fsObjB}
	f, err := fsB.Create("warm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, []byte("cached bytes")); err != nil {
		t.Fatal(err)
	}
	// Warm the client-side cache.
	if data, err := f.Read(0, 6); err != nil || string(data) != "cached" {
		t.Fatalf("warming read = %q, %v", data, err)
	}

	fn.Partition()
	defer fn.Heal()

	// Cached reads still work: they are served by B's cache manager.
	for i := 0; i < 3; i++ {
		data, err := f.Read(0, 6)
		if err != nil || string(data) != "cached" {
			t.Fatalf("partitioned read %d = %q, %v", i, data, err)
		}
	}
	// An uncached operation (write) must cross the wire and fail
	// retryably, not hang or panic.
	if _, err := f.Write(0, []byte("X")); err == nil {
		t.Fatal("write crossed a full partition")
	} else if !core.Retryable(err) {
		t.Fatalf("partitioned write error not retryable: %v", err)
	}
}
