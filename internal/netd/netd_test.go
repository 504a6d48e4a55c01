package netd

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/sctest"
	"repro/internal/subcontracts/replicon"
	"repro/internal/subcontracts/singleton"
)

// machine is one simulated host: a kernel, a network door server, and an
// application environment.
type machine struct {
	k   *kernel.Kernel
	srv *Server
	env *core.Env
}

func newMachine(t *testing.T, name string, libs ...func(*core.Registry) error) *machine {
	t.Helper()
	k := kernel.New(name)
	netDom := k.NewDomain(name + "-netd")
	srv, err := Start(netDom, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	libs = append([]func(*core.Registry) error{singleton.Register}, libs...)
	env, err := sctest.NewEnv(k, name+"-app", libs...)
	if err != nil {
		t.Fatal(err)
	}
	return &machine{k: k, srv: srv, env: env}
}

func TestCrossMachineInvoke(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(remote, 5); err != nil || v != 5 {
		t.Fatalf("cross-machine Add = %d, %v", v, err)
	}
	if ctr.Value() != 5 {
		t.Fatalf("server state = %d", ctr.Value())
	}
	if err := sctest.Boom(remote); err == nil {
		t.Fatal("remote exception lost in transit")
	}
}

func TestRevokedDoorSurfacesAcrossNetwork(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr := &sctest.Counter{}
	obj, door := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	door.Revoke()
	if _, err := sctest.Get(remote); !errors.Is(err, kernel.ErrRevoked) {
		t.Fatalf("Get on revoked remote door = %v, want kernel.ErrRevoked", err)
	}
}

func TestServerUnreachable(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	a.srv.Close()
	if _, err := sctest.Get(remote); !errors.Is(err, kernel.ErrCommFailure) {
		t.Fatalf("Get with server down = %v, want ErrCommFailure", err)
	}
}

func TestMissingRoot(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	if _, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "ghost", core.GenericMT); err == nil {
		t.Fatal("missing root fetch succeeded")
	}
}

func TestUnreferencedPropagatesAcrossNetwork(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr := &sctest.Counter{}
	unref := make(chan struct{})
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), func() { close(unref) })
	a.srv.PublishRoot("counter", obj)

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	// The root keeps one identifier; drop it so only B's proxy remains.
	a.srv.PublishRoot("counter", nil)
	if err := obj.Consume(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unref:
		t.Fatal("unreferenced fired while remote identifier alive")
	case <-time.After(20 * time.Millisecond):
	}
	if err := remote.Consume(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unref:
	case <-time.After(3 * time.Second):
		t.Fatal("unreferenced never propagated across the network")
	}
}

func TestNamingAcrossMachines(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	ns := naming.NewServer(a.env)
	a.srv.PublishRoot("naming", ns.Object())

	ctxObj, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "naming", naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	ctx := naming.Context{Obj: ctxObj}

	// B binds a B-local object into A's context: the door travels B→A.
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(b.env, sctest.CounterMT, ctr.Skeleton(), nil)
	if err := ctx.Bind("bcounter", obj, false); err != nil {
		t.Fatal(err)
	}

	// Resolving from B routes B→A (resolve) and then B→A→B for calls
	// (a proxy chain; semantically a door call on the B door).
	got, err := ctx.Resolve("bcounter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(got, 7); err != nil || v != 7 {
		t.Fatalf("Add through chained proxies = %d, %v", v, err)
	}
	if ctr.Value() != 7 {
		t.Fatalf("B-local state = %d", ctr.Value())
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	// A exports a counter; B fetches it and re-publishes it as B's root;
	// C fetches from B and invokes — the call chains C→B→A.
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	c := newMachine(t, "C")

	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)

	viaB, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	b.srv.PublishRoot("counter", viaB)

	viaC, err := c.srv.ImportRootObject(c.env, b.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(viaC, 3); err != nil || v != 3 {
		t.Fatalf("three-machine Add = %d, %v", v, err)
	}
}

func TestHomeUnwrap(t *testing.T) {
	// A's door travels to B and comes back home inside a reply: A must
	// end up invoking the real door, not a proxy loop.
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	nsB := naming.NewServer(b.env)
	b.srv.PublishRoot("naming", nsB.Object())

	ctxObj, err := a.srv.ImportRootObject(a.env, b.srv.Addr(), "naming", naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	ctx := naming.Context{Obj: ctxObj}

	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	if err := ctx.Bind("home", obj, false); err != nil {
		t.Fatal(err)
	}
	back, err := ctx.Resolve("home", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(back, 2); err != nil || v != 2 {
		t.Fatalf("Add on returned-home object = %d, %v", v, err)
	}
}

func TestRepliconFailoverAcrossMachines(t *testing.T) {
	// Replica doors live on machine A (two server domains); the client on
	// machine B holds proxies to both and fails over when one replica
	// crashes.
	a := newMachine(t, "A", replicon.Register)
	b := newMachine(t, "B", replicon.Register)

	g := replicon.NewGroup()
	ctr := &sctest.Counter{}
	env1, err := sctest.NewEnv(a.k, "replica1", singleton.Register, replicon.Register)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := sctest.NewEnv(a.k, "replica2", singleton.Register, replicon.Register)
	if err != nil {
		t.Fatal(err)
	}
	m1 := g.Join(env1, "r1", ctr.Skeleton())
	g.Join(env2, "r2", ctr.Skeleton())

	exported := g.Export(a.env, sctest.CounterMT)
	a.srv.PublishRoot("rcounter", exported)

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "rcounter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if remote.SC.ID() != replicon.SC.ID() {
		t.Fatalf("subcontract = %d, want replicon", remote.SC.ID())
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}
	m1.Crash()
	if v, err := sctest.Add(remote, 1); err != nil || v != 2 {
		t.Fatalf("Add after remote replica crash = %d, %v", v, err)
	}
}

func TestConcurrentCrossMachineCalls(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sctest.Add(remote, 1); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ctr.Value() != 32 {
		t.Fatalf("counter = %d, want 32", ctr.Value())
	}
}

func TestCallTimeout(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachineCfg(t, "B", Config{CallTimeout: 100 * time.Millisecond})

	// A server that hangs until released.
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	hang := stubsSkeleton(func() { <-gate })
	obj, _ := singleton.Export(a.env, sctest.CounterMT, hang, nil)
	a.srv.PublishRoot("hang", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "hang", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = sctest.Get(remote)
	if !errors.Is(err, kernel.ErrCommFailure) {
		t.Fatalf("hung call = %v, want ErrCommFailure (timeout)", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// stubsSkeleton wraps a blocking hook into a counter-shaped skeleton.
func stubsSkeleton(hook func()) stubsSkeletonT {
	return stubsSkeletonT{hook: hook}
}

type stubsSkeletonT struct{ hook func() }

func (s stubsSkeletonT) Dispatch(op core.OpNum, args, results *buffer.Buffer) error {
	s.hook()
	results.WriteInt64(0)
	return nil
}

func TestExportsDrainAfterConsume(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if a.srv.Exports() != 1 {
		t.Fatalf("exports = %d, want 1", a.srv.Exports())
	}
	if err := remote.Consume(); err != nil {
		t.Fatal(err)
	}
	// The proxy's unreferenced notification sends a release; the export
	// entry drains (asynchronously, over the wire).
	until(t, "the export entry to drain", func() bool { return a.srv.Exports() == 0 })
}

func TestExportDedupe(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)
	for i := 0; i < 5; i++ {
		if _, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT); err != nil {
			t.Fatal(err)
		}
	}
	// The same door exported five times occupies one export entry.
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("export entries = %d, want 1", got)
	}
}
