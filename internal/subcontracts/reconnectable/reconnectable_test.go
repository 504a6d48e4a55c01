package reconnectable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/sctest"
	"repro/internal/subcontracts/doorsc"
	"repro/internal/subcontracts/singleton"
)

// world is a test fixture: a kernel, a naming server, a server domain, and
// a client domain wired with the default naming context.
type world struct {
	k       *kernel.Kernel
	nameSrv *naming.Server
	srv     *core.Env
	cli     *core.Env
	ctx     naming.Context // server-side view, for Export
}

func newWorld(t *testing.T) *world {
	t.Helper()
	k := kernel.New("m1")
	nsEnv, err := sctest.NewEnv(k, "nameserver", singleton.Register, Register)
	if err != nil {
		t.Fatal(err)
	}
	ns := naming.NewServer(nsEnv)

	srv, err := sctest.NewEnv(k, "server", singleton.Register, Register)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := sctest.NewEnv(k, "client", singleton.Register, Register)
	if err != nil {
		t.Fatal(err)
	}

	// Hand each domain its own context object.
	give := func(env *core.Env) *core.Object {
		cp, err := ns.Object().Copy()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := sctest.Transfer(cp, env, naming.ContextMT)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	srvCtx := give(srv)
	cli.Set(ContextVar, give(cli))

	return &world{k: k, nameSrv: ns, srv: srv, cli: cli, ctx: naming.Context{Obj: srvCtx}}
}

// crashAndRestart revokes the old door and re-exports the same skeleton
// under the same name, as a restarted stable-storage server would.
func crashAndRestart(t *testing.T, w *world, name string, ctr *sctest.Counter, old *kernel.Door) *kernel.Door {
	t.Helper()
	old.Revoke()
	_, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), name, w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	return door
}

func TestNormalInvoke(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, _, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if remote.SC.ID() != SCID {
		t.Fatalf("subcontract = %d", remote.SC.ID())
	}
	if v, err := sctest.Add(remote, 2); err != nil || v != 2 {
		t.Fatalf("Add = %d, %v", v, err)
	}
}

func TestReconnectAfterCrash(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}

	crashAndRestart(t, w, "svc", ctr, door)

	// The next call transparently reconnects: state survives because the
	// "stable storage" (the counter) survived the crash.
	if v, err := sctest.Add(remote, 1); err != nil || v != 2 {
		t.Fatalf("Add after crash = %d, %v; reconnect failed", v, err)
	}
}

func TestReconnectWaitsForRestart(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	// Crash, and also unbind the name so resolution itself fails for a
	// while; restart (rebinding) shortly after, concurrently with the
	// client's retry loop.
	door.Revoke()
	if err := w.ctx.Unbind("svc"); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		_, _, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
		if err != nil {
			t.Error(err)
		}
	}()
	if v, err := sctest.Add(remote, 5); err != nil || v != 5 {
		t.Fatalf("Add during restart window = %d, %v", v, err)
	}
}

func TestGiveUpWhenNeverRestarted(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	door.Revoke()
	if err := w.ctx.Unbind("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Get(remote); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("Get = %v, want ErrGaveUp", err)
	}
}

// TestShedKeepsDoor: a call the server shed (kernel.ErrOverload) never
// ran and its door is sound, so reconnectable pauses and retries it on the
// same door instead of re-resolving the name.
func TestShedKeepsDoor(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	if _, _, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx); err != nil {
		t.Fatal(err)
	}
	serve := doorsc.ServerProcTyped(sctest.CounterMT.Type, ctr.Skeleton())
	var shed atomic.Bool
	h, _ := w.srv.Domain.CreateDoorInfo(func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		if shed.CompareAndSwap(false, true) {
			return nil, kernel.ErrOverload
		}
		return serve(req, info)
	}, nil)
	ref, err := w.srv.Domain.RefOf(h)
	if err != nil {
		t.Fatal(err)
	}
	held := w.cli.Domain.AdoptRef(ref)
	remote := core.NewObject(w.cli, sctest.CounterMT, SC, &Rep{h: held, name: "svc"})

	before := stats.Reconnects.Load()
	if v, err := sctest.Add(remote, 4); err != nil || v != 4 || !shed.Load() {
		t.Fatalf("Add through a shed call = %d, %v (shed %v)", v, err, shed.Load())
	}
	if got := stats.Reconnects.Load() - before; got != 0 {
		t.Fatalf("a shed call made %d reconnects, want 0", got)
	}
	if r := remote.Rep.(*Rep); r.h != held {
		t.Fatalf("door after a shed call = %d, want the one held before (%d)", r.h, held)
	}
}

func TestNoContextConfigured(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := sctest.NewEnv(w.k, "bare-client", singleton.Register, Register)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, bare, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	door.Revoke()
	if _, err := sctest.Get(remote); !errors.Is(err, ErrNoContext) {
		t.Fatalf("Get = %v, want ErrNoContext", err)
	}
}

func TestConcurrentReconnect(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	crashAndRestart(t, w, "svc", ctr, door)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
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
	if ctr.Value() != 16 {
		t.Fatalf("counter = %d, want 16", ctr.Value())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	// Move it onward to a second client; the name travels with it.
	cli2, err := sctest.NewEnv(w.k, "client2", singleton.Register, Register)
	if err != nil {
		t.Fatal(err)
	}
	ctxCopy, err := naming.Context{Obj: w.ctx.Obj}.Obj.Copy()
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := sctest.Transfer(ctxCopy, cli2, naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	cli2.Set(ContextVar, ctx2)

	moved, err := sctest.Transfer(remote, cli2, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	crashAndRestart(t, w, "svc", ctr, door)
	if v, err := sctest.Add(moved, 3); err != nil || v != 3 {
		t.Fatalf("Add via moved object after crash = %d, %v", v, err)
	}
}

func TestCopyReconnectsIndependently(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := remote.Copy()
	if err != nil {
		t.Fatal(err)
	}
	crashAndRestart(t, w, "svc", ctr, door)
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(cp, 1); err != nil {
		t.Fatal(err)
	}
	if ctr.Value() != 2 {
		t.Fatalf("counter = %d", ctr.Value())
	}
}

func TestConsume(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, _, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Consume(); err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Get(obj); !errors.Is(err, core.ErrConsumed) {
		t.Fatalf("Get after consume = %v", err)
	}
}
