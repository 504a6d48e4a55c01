package conformance_test

import (
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/cluster"
	"repro/internal/subcontracts/priority"
	"repro/internal/subcontracts/reconnectable"
	"repro/internal/subcontracts/replicon"
	"repro/internal/subcontracts/shm"
	"repro/internal/subcontracts/simplex"
	"repro/internal/subcontracts/singleton"
	"repro/internal/subcontracts/txnsc"
	"repro/internal/subcontracts/video"
	"repro/internal/trace"
	"repro/internal/txn"
)

// These cases extend the conformance battery with the trace obligations:
// a call made with an explicit trace identifier must surface that same
// identifier on the server side of every subcontract, and the recorded
// spans must form a parent/child chain — the subcontract's invoke span
// parenting the server skeleton span. Together with the scstats TestMain
// audit this is the proof that the §5 ops-vector instrumentation carries
// the full (trace, span, parent) triple, not just a counter bump.

// spanIndex maps the recorded spans of one trace by name for assertions.
func spanIndex(t *testing.T, traceID uint64) map[string][]trace.SpanData {
	t.Helper()
	byName := make(map[string][]trace.SpanData)
	for _, sd := range trace.Collect(traceID) {
		if sd.TraceID != traceID {
			t.Fatalf("span %q carries trace %016x, want %016x", sd.Name, sd.TraceID, traceID)
		}
		byName[sd.Name] = append(byName[sd.Name], sd)
	}
	return byName
}

// assertChildOf fails unless some span named child has a parent span
// named parent within the same trace.
func assertChildOf(t *testing.T, byName map[string][]trace.SpanData, child, parent string) {
	t.Helper()
	parents := make(map[uint64]string)
	for name, sds := range byName {
		for _, sd := range sds {
			parents[sd.SpanID] = name
		}
	}
	for _, sd := range byName[child] {
		if parents[sd.ParentID] == parent {
			return
		}
	}
	t.Errorf("no %q span is a child of %q (have %v)", child, parent, byName)
}

// traceExports enumerates every server-based subcontract with an export
// that needs no machine-wide fixture. caching, reconnectable and the netd
// hop get their own cases below.
func traceExports(t *testing.T) map[string]func(srv *core.Env) *core.Object {
	t.Helper()
	exec := dispatch.New(dispatch.Config{Workers: 2})
	t.Cleanup(exec.Close)
	coord := txn.NewCoordinator()
	shmSC := shm.New(shm.Direct)
	return map[string]func(srv *core.Env) *core.Object{
		"singleton": func(srv *core.Env) *core.Object {
			obj, _ := singleton.Export(srv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
			return obj
		},
		"simplex": func(srv *core.Env) *core.Object {
			return simplex.Export(srv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
		},
		"cluster": func(srv *core.Env) *core.Object {
			obj, err := cluster.NewServer(srv).Export(sctest.CounterMT, (&sctest.Counter{}).Skeleton())
			if err != nil {
				t.Fatal(err)
			}
			return obj
		},
		"replicon": func(srv *core.Env) *core.Object {
			g := replicon.NewGroup()
			g.Join(srv, "r0", (&sctest.Counter{}).Skeleton())
			return g.Export(srv, sctest.CounterMT)
		},
		"priority": func(srv *core.Env) *core.Object {
			obj, _ := priority.Export(srv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), exec, nil)
			return obj
		},
		"txn": func(srv *core.Env) *core.Object {
			ctr := &sctest.Counter{}
			skel := txnsc.SkeletonFunc(func(id txn.ID, op core.OpNum, args, results *buffer.Buffer) error {
				return ctr.Skeleton().Dispatch(op, args, results)
			})
			obj, _ := txnsc.Export(srv, sctest.CounterMT, skel, nopParticipant{}, coord, nil)
			return obj
		},
		"shm": func(srv *core.Env) *core.Object {
			if err := shmSC.Register(srv.Registry); err != nil {
				t.Fatal(err)
			}
			obj, _ := shmSC.Export(srv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
			return obj
		},
		"video": func(srv *core.Env) *core.Object {
			obj, _ := video.Export(srv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), video.NewSource(), nil)
			return obj
		},
	}
}

func TestTracePropagatesPerSubcontract(t *testing.T) {
	for name, export := range traceExports(t) {
		t.Run(name, func(t *testing.T) {
			srv := plainEnv(t, kernel.New("trace-"+name), "server")
			obj := export(srv)
			traceID := trace.NewTraceID()
			if v, err := sctest.Add(obj, 5, core.WithTrace(traceID)); err != nil || v != 5 {
				t.Fatalf("Add = %d, %v", v, err)
			}
			byName := spanIndex(t, traceID)
			invoke := name + ".invoke"
			if name == "simplex" {
				// A freshly exported simplex object is in its server's
				// address space: the doorless fast path serves the call.
				invoke = "simplex(local).invoke"
			}
			if len(byName[invoke]) == 0 {
				t.Fatalf("no %q span recorded; have %v", invoke, byName)
			}
			assertChildOf(t, byName, "skeleton", invoke)
		})
	}
}

// TestTracePropagatesValue covers the doorless value subcontract: the
// handler dispatch still runs under a skeleton span inside value.invoke.
func TestTracePropagatesValue(t *testing.T) {
	env, err := sctest.NewEnv(kernel.New("trace-value"), "value", libs(t)...)
	if err != nil {
		t.Fatal(err)
	}
	obj := valueProbe(env)
	traceID := trace.NewTraceID()
	if err := stubs.Call(obj, 0, nil, nil, core.WithTrace(traceID)); err != nil {
		t.Fatal(err)
	}
	byName := spanIndex(t, traceID)
	if len(byName["value.invoke"]) == 0 {
		t.Fatalf("no value.invoke span; have %v", byName)
	}
	assertChildOf(t, byName, "skeleton", "value.invoke")
}

// infoCapture records the invocation context the server skeleton sees.
type infoCapture struct {
	inner stubs.Skeleton
	mu    sync.Mutex
	seen  []kernel.Info
}

func (c *infoCapture) Dispatch(op core.OpNum, args, results *buffer.Buffer) error {
	return c.DispatchInfo(op, args, results, nil)
}

func (c *infoCapture) DispatchInfo(op core.OpNum, args, results *buffer.Buffer, info *kernel.Info) error {
	c.mu.Lock()
	if info != nil {
		c.seen = append(c.seen, *info)
	}
	c.mu.Unlock()
	return c.inner.Dispatch(op, args, results)
}

// TestServerSeesCallersTrace asserts, via an InfoSkeleton, that the exact
// trace identifier a caller attaches arrives in the server's kernel.Info,
// with the server's span a fresh child (Span set, Parent pointing back up
// the chain, neither equal to the caller's raw identifiers).
func TestServerSeesCallersTrace(t *testing.T) {
	srv := plainEnv(t, kernel.New("trace-info"), "server")
	cap := &infoCapture{inner: (&sctest.Counter{}).Skeleton()}
	obj, _ := singleton.Export(srv, sctest.CounterMT, cap, nil)
	traceID := trace.NewTraceID()
	if _, err := sctest.Add(obj, 1, core.WithTrace(traceID)); err != nil {
		t.Fatal(err)
	}
	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.seen) != 1 {
		t.Fatalf("captured %d contexts, want 1", len(cap.seen))
	}
	info := cap.seen[0]
	if info.Trace != traceID {
		t.Errorf("server-seen trace = %016x, want %016x", info.Trace, traceID)
	}
	if info.Span == 0 || info.Parent == 0 {
		t.Errorf("server-seen span/parent = %016x/%016x, want both nonzero", info.Span, info.Parent)
	}
	if info.Span == info.Parent {
		t.Errorf("span == parent (%016x); Begin did not mint a child", info.Span)
	}
}

// TestTraceAcrossNetdHop runs the traced call through a real network hop
// (two in-process machines) and asserts the server-side spans nest under
// the client's netd.send span: one trace, both sides.
func TestTraceAcrossNetdHop(t *testing.T) {
	kA := kernel.New("trace-mA")
	netA, err := netd.Start(kA.NewDomain("netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer netA.Close()
	kB := kernel.New("trace-mB")
	netB, err := netd.Start(kB.NewDomain("netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer netB.Close()

	srv := plainEnv(t, kA, "server")
	obj, _ := singleton.Export(srv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
	netA.PublishRoot("ctr", obj)
	cli := plainEnv(t, kB, "client")
	remote, err := netB.ImportRootObject(cli, netA.Addr(), "ctr", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	traceID := trace.NewTraceID()
	if v, err := sctest.Add(remote, 2, core.WithTrace(traceID)); err != nil || v != 2 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	// Client side: the proxy's singleton.invoke span parents netd.send.
	// Server side: netd.serve (minted from the wire-carried parent) nests
	// under netd.send, and the skeleton under that — one tree, two
	// machines.
	byName := spanIndex(t, traceID)
	assertChildOf(t, byName, "netd.send", "singleton.invoke")
	assertChildOf(t, byName, "netd.serve", "netd.send")
	assertChildOf(t, byName, "skeleton", "netd.serve")
}

// TestTraceRetryAndReconnect crashes and restarts a reconnectable server
// mid-trace: the retry and reconnect events must land in the same trace,
// as children of the surviving reconnectable.invoke span.
func TestTraceRetryAndReconnect(t *testing.T) {
	k := kernel.New("trace-reconnect")
	ns := naming.NewServer(plainEnv(t, k, "naming"))
	srv := plainEnv(t, k, "server")
	cli := plainEnv(t, k, "client")
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
	srvCtx := naming.Context{Obj: give(srv)}
	cli.Set(reconnectable.ContextVar, give(cli))

	ctr := &sctest.Counter{}
	obj, door, err := reconnectable.Export(srv, sctest.CounterMT, ctr.Skeleton(), "svc", srvCtx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}

	// Crash and restart the server, then call with a fresh trace: the
	// stale binding forces retry + reconnect inside this one invocation.
	door.Revoke()
	if _, _, err := reconnectable.Export(srv, sctest.CounterMT, ctr.Skeleton(), "svc", srvCtx); err != nil {
		t.Fatal(err)
	}
	traceID := trace.NewTraceID()
	if v, err := sctest.Add(remote, 1, core.WithTrace(traceID)); err != nil || v != 2 {
		t.Fatalf("Add after crash = %d, %v", v, err)
	}
	byName := spanIndex(t, traceID)
	if len(byName["reconnectable.invoke"]) == 0 {
		t.Fatalf("no reconnectable.invoke span; have %v", byName)
	}
	assertChildOf(t, byName, "reconnectable.retry", "reconnectable.invoke")
	assertChildOf(t, byName, "reconnectable.reconnect", "reconnectable.invoke")
}

// TestTraceFailover kills the replica a replicon client is bound to: the
// failover event must be recorded inside the same trace as the call that
// triggered it.
func TestTraceFailover(t *testing.T) {
	k := kernel.New("trace-failover")
	srv := plainEnv(t, k, "server")
	ctr := &sctest.Counter{}
	g := replicon.NewGroup()
	m0 := g.Join(srv, "r0", ctr.Skeleton())
	g.Join(srv, "r1", ctr.Skeleton())
	cli := plainEnv(t, k, "client")
	obj := g.Export(cli, sctest.CounterMT)

	if _, err := sctest.Add(obj, 1); err != nil {
		t.Fatal(err)
	}
	m0.Crash()
	traceID := trace.NewTraceID()
	if v, err := sctest.Add(obj, 1, core.WithTrace(traceID)); err != nil || v != 2 {
		t.Fatalf("Add after crash = %d, %v", v, err)
	}
	byName := spanIndex(t, traceID)
	if len(byName["replicon.invoke"]) == 0 {
		t.Fatalf("no replicon.invoke span; have %v", byName)
	}
	assertChildOf(t, byName, "replicon.failover", "replicon.invoke")
	assertChildOf(t, byName, "replicon.retry", "replicon.invoke")
}

// TestTraceCacheEvents drives a cached operation twice: the leader miss
// records a cache.miss span under caching.invoke, the second call a
// cache.hit event — all in their respective traces.
func TestTraceCacheEvents(t *testing.T) {
	fix := &cachingFixture{per: make(map[*kernel.Kernel]*naming.Server)}
	newEnv := cachingEnvFunc(fix)
	k := kernel.New("trace-cache")
	srv := newEnv(t, k, "server")
	cli := newEnv(t, k, "client")
	ctr := &sctest.Counter{}
	obj, _ := caching.Export(srv, sctest.CounterMT, ctr.Skeleton(), "cachemgr",
		cache.NewOpSet(sctest.OpGet), cache.NewOpSet(sctest.OpAdd), nil)
	remote, err := sctest.Transfer(obj, cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	missTrace := trace.NewTraceID()
	if _, err := sctest.Get(remote, core.WithTrace(missTrace)); err != nil {
		t.Fatal(err)
	}
	byName := spanIndex(t, missTrace)
	assertChildOf(t, byName, "cache.miss", "caching.invoke")

	hitTrace := trace.NewTraceID()
	if _, err := sctest.Get(remote, core.WithTrace(hitTrace)); err != nil {
		t.Fatal(err)
	}
	byName = spanIndex(t, hitTrace)
	assertChildOf(t, byName, "cache.hit", "caching.invoke")
}
