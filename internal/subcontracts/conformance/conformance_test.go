// Package conformance_test runs the framework-contract battery
// (sctest.Conformance) against every server-based subcontract in the
// repository: the §5–§7 obligations — move semantics of marshal,
// retention under marshal_copy, shared state under copy, consume
// semantics, remote exception transparency, onward transfer, the
// compatible-subcontract protocol, and nil references — hold for each
// policy, which is what "all object mechanisms are on a par with one
// another" (§10) means in practice. The value subcontract is the one
// deliberate exception: its copy yields independent state (§6.3 lets
// subcontracts define semantics), so it carries its own tests.
package conformance_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/sctest"
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
	"repro/internal/txn"
)

// libs is the full library set linked into every conformance domain.
func libs(t *testing.T, extra ...func(*core.Registry) error) []func(*core.Registry) error {
	t.Helper()
	return append([]func(*core.Registry) error{
		singleton.Register, simplex.Register, cluster.Register,
		replicon.Register, caching.Register, reconnectable.Register,
		priority.Register, txnsc.Register, video.Register,
	}, extra...)
}

// plainEnv is the NewEnv for subcontracts without machine-wide fixtures.
func plainEnv(t *testing.T, k *kernel.Kernel, name string) *core.Env {
	t.Helper()
	env, err := sctest.NewEnv(k, name, libs(t)...)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestSingletonConformance(t *testing.T) {
	sctest.Conformance{
		Name:        "singleton",
		NewEnv:      plainEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			ctr := &sctest.Counter{}
			obj, _ := singleton.Export(srv, sctest.CounterMT, ctr.Skeleton(), nil)
			return obj, ctr
		},
	}.Run(t)
}

func TestSimplexConformance(t *testing.T) {
	sctest.Conformance{
		Name:        "simplex",
		NewEnv:      plainEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			ctr := &sctest.Counter{}
			return simplex.Export(srv, sctest.CounterMT, ctr.Skeleton(), nil), ctr
		},
	}.Run(t)
}

func TestClusterConformance(t *testing.T) {
	var mu sync.Mutex
	servers := make(map[*core.Env]*cluster.Server)
	sctest.Conformance{
		Name:        "cluster",
		NewEnv:      plainEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			mu.Lock()
			s, ok := servers[srv]
			if !ok {
				s = cluster.NewServer(srv)
				servers[srv] = s
			}
			mu.Unlock()
			ctr := &sctest.Counter{}
			obj, err := s.Export(sctest.CounterMT, ctr.Skeleton())
			if err != nil {
				t.Fatal(err)
			}
			return obj, ctr
		},
	}.Run(t)
}

func TestRepliconConformance(t *testing.T) {
	sctest.Conformance{
		Name:        "replicon",
		NewEnv:      plainEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			ctr := &sctest.Counter{}
			g := replicon.NewGroup()
			for i := 0; i < 2; i++ {
				g.Join(srv, fmt.Sprintf("r%d", i), ctr.Skeleton())
			}
			return g.Export(srv, sctest.CounterMT), ctr
		},
	}.Run(t)
}

// cachingFixture holds per-kernel machine services for the caching runs.
type cachingFixture struct {
	mu  sync.Mutex
	per map[*kernel.Kernel]*naming.Server
}

// cachingEnvFunc builds the caching battery's NewEnv: per-kernel naming
// server + cache manager, with the local context slot set on every env.
func cachingEnvFunc(fix *cachingFixture) func(t *testing.T, k *kernel.Kernel, name string) *core.Env {
	return func(t *testing.T, k *kernel.Kernel, name string) *core.Env {
		t.Helper()
		fix.mu.Lock()
		ns, ok := fix.per[k]
		fix.mu.Unlock()
		if !ok {
			nsEnv := plainEnv(t, k, "naming")
			ns = naming.NewServer(nsEnv)
			mgr := cache.NewManager(plainEnv(t, k, "cachemgr"))
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
			fix.mu.Lock()
			fix.per[k] = ns
			fix.mu.Unlock()
		}
		env := plainEnv(t, k, name)
		cp, err := ns.Object().Copy()
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := sctest.Transfer(cp, env, naming.ContextMT)
		if err != nil {
			t.Fatal(err)
		}
		env.Set(caching.LocalContextVar, ctx)
		return env
	}
}

func TestCachingConformance(t *testing.T) {
	fix := &cachingFixture{per: make(map[*kernel.Kernel]*naming.Server)}
	newEnv := cachingEnvFunc(fix)
	sctest.Conformance{
		Name:        "caching",
		NewEnv:      newEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			ctr := &sctest.Counter{}
			obj, _ := caching.Export(srv, sctest.CounterMT, ctr.Skeleton(), "cachemgr",
				// No ops cached: the conformance battery checks framework
				// semantics, and a counter's get must always see writes
				// made through other views without a coherence protocol.
				cache.NewOpSet(), cache.NewOpSet(sctest.OpAdd), nil)
			return obj, ctr
		},
	}.Run(t)
}

func TestReconnectableConformance(t *testing.T) {
	var mu sync.Mutex
	namers := make(map[*kernel.Kernel]*naming.Server)
	seq := 0
	newEnv := func(t *testing.T, k *kernel.Kernel, name string) *core.Env {
		t.Helper()
		mu.Lock()
		ns, ok := namers[k]
		mu.Unlock()
		if !ok {
			ns = naming.NewServer(plainEnv(t, k, "naming"))
			mu.Lock()
			namers[k] = ns
			mu.Unlock()
		}
		env := plainEnv(t, k, name)
		cp, err := ns.Object().Copy()
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := sctest.Transfer(cp, env, naming.ContextMT)
		if err != nil {
			t.Fatal(err)
		}
		env.Set(reconnectable.ContextVar, ctx)
		return env
	}
	sctest.Conformance{
		Name:        "reconnectable",
		NewEnv:      newEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			mu.Lock()
			ns := namers[srv.Domain.Kernel()]
			seq++
			name := fmt.Sprintf("counter-%d", seq)
			mu.Unlock()
			h, err := ns.Handle()
			if err != nil {
				t.Fatal(err)
			}
			ctr := &sctest.Counter{}
			obj, _, err := reconnectable.Export(srv, sctest.CounterMT, ctr.Skeleton(), name, h)
			if err != nil {
				t.Fatal(err)
			}
			return obj, ctr
		},
	}.Run(t)
}

func TestShmConformance(t *testing.T) {
	for _, mode := range []shm.Mode{shm.Direct, shm.CopyAfter} {
		sc := shm.New(mode)
		newEnv := func(t *testing.T, k *kernel.Kernel, name string) *core.Env {
			t.Helper()
			env, err := sctest.NewEnv(k, name, libs(t)...)
			if err != nil {
				t.Fatal(err)
			}
			// The shm instance replaces the standard id-7 slot; nothing
			// else in the battery registers id 7.
			if err := sc.Register(env.Registry); err != nil {
				t.Fatal(err)
			}
			return env
		}
		sctest.Conformance{
			Name:        fmt.Sprintf("shm-mode%d", mode),
			NewEnv:      newEnv,
			LocalInvoke: true,
			Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
				ctr := &sctest.Counter{}
				obj, _ := sc.Export(srv, sctest.CounterMT, ctr.Skeleton(), nil)
				return obj, ctr
			},
		}.Run(t)
	}
}

func TestPriorityConformance(t *testing.T) {
	exec := dispatch.New(dispatch.Config{Workers: 4})
	defer exec.Close()
	sctest.Conformance{
		Name:        "priority",
		NewEnv:      plainEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			ctr := &sctest.Counter{}
			obj, _ := priority.Export(srv, sctest.CounterMT, ctr.Skeleton(), exec, nil)
			return obj, ctr
		},
	}.Run(t)
}

func TestTxnConformance(t *testing.T) {
	coord := txn.NewCoordinator()
	sctest.Conformance{
		Name:        "txn",
		NewEnv:      plainEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			ctr := &sctest.Counter{}
			skel := txnsc.SkeletonFunc(func(id txn.ID, op core.OpNum, args, results *buffer.Buffer) error {
				return ctr.Skeleton().Dispatch(op, args, results)
			})
			obj, _ := txnsc.Export(srv, sctest.CounterMT, skel, nopParticipant{}, coord, nil)
			return obj, ctr
		},
	}.Run(t)
}

// nopParticipant satisfies txn.Participant for non-transactional use.
type nopParticipant struct{}

func (nopParticipant) Prepare(txn.ID) error { return nil }
func (nopParticipant) Commit(txn.ID)        {}
func (nopParticipant) Abort(txn.ID)         {}

func TestVideoConformance(t *testing.T) {
	sctest.Conformance{
		Name:        "video",
		NewEnv:      plainEnv,
		LocalInvoke: true,
		Export: func(t *testing.T, srv *core.Env) (*core.Object, *sctest.Counter) {
			ctr := &sctest.Counter{}
			src := video.NewSource()
			obj, _ := video.Export(srv, sctest.CounterMT, ctr.Skeleton(), src, nil)
			return obj, ctr
		},
	}.Run(t)
}
