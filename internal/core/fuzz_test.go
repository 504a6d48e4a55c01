package core_test

import (
	"runtime/metrics"
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
	"repro/internal/subcontracts/value"
	"repro/internal/subcontracts/video"
	"repro/internal/txn"
)

// fuzzDoors is how many door references each fuzzed buffer carries
// out of band: enough for every subcontract's form (replicon's is a count
// of them), so a mutated stream reaches past the door tags.
const fuzzDoors = 4

// allocSlack and allocPerByte bound what one unmarshal may allocate: a
// constant for the object, its representation and a first resolution of
// the cache manager, plus a constant times the input. A decoder that
// sizes an allocation by a count read off the wire blows through it.
const (
	allocSlack   = 64 << 10
	allocPerByte = 64
)

// linkAll links every subcontract under internal/subcontracts into r.
func linkAll(r *core.Registry) error {
	for _, reg := range []func(*core.Registry) error{
		singleton.Register, simplex.Register, cluster.Register,
		replicon.Register, caching.Register, reconnectable.Register,
		shm.New(shm.Direct).Register, priority.Register, txnsc.Register,
		video.Register, value.Register,
	} {
		if err := reg(r); err != nil {
			return err
		}
	}
	return nil
}

// newFuzzEnv builds a domain that links every subcontract, with a naming
// context holding a cache manager in the caching subcontract's slot.
func newFuzzEnv(tb testing.TB, k *kernel.Kernel, name string, ns *naming.Server) *core.Env {
	tb.Helper()
	env := newPlainEnv(tb, k, name)
	cp, err := ns.Object().Copy()
	if err != nil {
		tb.Fatal(err)
	}
	ctx, err := sctest.Transfer(cp, env, naming.ContextMT)
	if err != nil {
		tb.Fatal(err)
	}
	env.Set(caching.LocalContextVar, ctx)
	return env
}

// marshalSeeds returns each subcontract's own marshalled reference to a
// counter exported in srv, and a nil reference: the bytes only, the door
// references they carried released.
func marshalSeeds(tb testing.TB, srv *core.Env, ns *naming.Server, exec *dispatch.Engine) [][]byte {
	tb.Helper()
	skel := (&sctest.Counter{}).Skeleton()
	mt := sctest.CounterMT
	h, err := ns.Handle()
	if err != nil {
		tb.Fatal(err)
	}
	clu, err := cluster.NewServer(srv).Export(mt, skel)
	if err != nil {
		tb.Fatal(err)
	}
	rec, _, err := reconnectable.Export(srv, mt, skel, "fuzz-counter", h)
	if err != nil {
		tb.Fatal(err)
	}
	group := replicon.NewGroup()
	group.Join(srv, "r0", skel)
	group.Join(srv, "r1", skel)
	txnSkel := txnsc.SkeletonFunc(func(_ txn.ID, op core.OpNum, args, results *buffer.Buffer) error {
		return skel.Dispatch(op, args, results)
	})
	first := func(o *core.Object, _ *kernel.Door) *core.Object { return o }
	objs := []*core.Object{
		first(singleton.Export(srv, mt, skel, nil)),
		simplex.Export(srv, mt, skel, nil),
		clu,
		group.Export(srv, mt),
		first(caching.Export(srv, mt, skel, "cachemgr", cache.NewOpSet(sctest.OpGet), cache.NewOpSet(sctest.OpAdd), nil)),
		rec,
		first(shm.New(shm.Direct).Export(srv, mt, skel, nil)),
		first(priority.Export(srv, mt, skel, exec, nil)),
		first(txnsc.Export(srv, mt, txnSkel, nopParticipant{}, txn.NewCoordinator(), nil)),
		first(video.Export(srv, mt, skel, video.NewSource(), nil)),
		value.New(srv, mt, []byte("fuzz")),
		nil,
	}
	var seeds [][]byte
	for _, obj := range objs {
		buf := buffer.New(64)
		if err := obj.Marshal(buf); err != nil {
			tb.Fatalf("marshal seed: %v", err)
		}
		seeds = append(seeds, append([]byte(nil), buf.Bytes()...))
		kernel.ReleaseBufferDoors(buf)
	}
	return seeds
}

type nopParticipant struct{}

func (nopParticipant) Prepare(txn.ID) error { return nil }
func (nopParticipant) Commit(txn.ID)        {}
func (nopParticipant) Abort(txn.ID)         {}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzUnmarshal feeds arbitrary marshalled references, with door
// references to a live door out of band, to core.Unmarshal in a domain
// that links every subcontract. Unmarshal must never panic, must draw no
// pooled buffer it does not put back, must leave no door identifier behind
// once the object it returns is consumed, and must allocate no more than a
// constant plus a constant times the input.
func FuzzUnmarshal(f *testing.F) {
	k := kernel.New("fuzz")
	ns := naming.NewServer(newPlainEnv(f, k, "naming"))
	mgr := cache.NewManager(newPlainEnv(f, k, "cachemgr"))
	mgrObj, err := mgr.Object().Copy()
	if err != nil {
		f.Fatal(err)
	}
	h, err := ns.Handle()
	if err != nil {
		f.Fatal(err)
	}
	if err := h.Bind("cachemgr", mgrObj, false); err != nil {
		f.Fatal(err)
	}
	exec := dispatch.New(dispatch.Config{Workers: 1})
	f.Cleanup(exec.Close)

	srv := newPlainEnv(f, k, "server")
	for _, seed := range marshalSeeds(f, srv, ns, exec) {
		f.Add(seed)
	}
	// Every door handed out answers with an empty reply, so a form that
	// calls its server while unmarshalling (video's attach) gets past it.
	nullDoor, _ := srv.Domain.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
		kernel.ReleaseBufferDoors(req)
		return buffer.New(0), nil
	}, nil)
	env := newFuzzEnv(f, k, "client", ns)

	// unmarshal runs one input and reports what it allocated.
	unmarshal := func(t *testing.T, data []byte) uint64 {
		buf := buffer.New(len(data))
		buf.WriteRaw(data)
		for i := 0; i < fuzzDoors; i++ {
			r, err := srv.Domain.RefOf(nullDoor)
			if err != nil {
				t.Fatal(err)
			}
			buf.AppendDoor(r)
		}
		handles := env.Domain.HandleCount()
		ledger := buffer.Stats()
		allocs := heapAllocs()

		obj, err := core.Unmarshal(env, sctest.CounterMT, buf)
		if err == nil && obj != nil {
			if err := obj.Consume(); err != nil {
				t.Fatalf("consuming the unmarshalled %s object: %v", obj.SC.Name(), err)
			}
		}
		kernel.ReleaseBufferDoors(buf)

		allocs = heapAllocs() - allocs
		if led := buffer.Stats().Sub(ledger); led.Gets != led.Puts {
			t.Errorf("buffer ledger: %d gets, %d puts", led.Gets, led.Puts)
		}
		if n := env.Domain.HandleCount(); n != handles {
			t.Errorf("handle count %d after the unmarshal (err %v), want %d", n, err, handles)
		}
		return allocs
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The allocation counter is process-wide, and the fuzzing engine
		// allocates beside the input it runs: only an excess the input
		// repeats is the decoder's.
		limit := allocSlack + allocPerByte*uint64(len(data))
		if unmarshal(t, data) > limit {
			if n := unmarshal(t, data); n > limit {
				t.Errorf("unmarshalling %d bytes allocated %d bytes", len(data), n)
			}
		}
	})
}

// newPlainEnv builds a domain that links every subcontract.
func newPlainEnv(tb testing.TB, k *kernel.Kernel, name string) *core.Env {
	tb.Helper()
	env, err := sctest.NewEnv(k, name, linkAll)
	if err != nil {
		tb.Fatal(err)
	}
	return env
}
