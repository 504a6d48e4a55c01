package cache

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

func setup(t *testing.T) (*Manager, *core.Env, *core.Env) {
	t.Helper()
	k := kernel.New("m1")
	mgrEnv, err := sctest.NewEnv(k, "cachemgr", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	srvEnv, err := sctest.NewEnv(k, "server", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(mgrEnv), mgrEnv, srvEnv
}

// clientFor wires a cache door in front of a counter server and returns a
// handle callable from the manager's environment plus the counter.
func clientFor(t *testing.T, m *Manager, srv *core.Env) (kernel.Handle, *sctest.Counter, kernel.Handle) {
	t.Helper()
	d1, ctr := counterDoor(srv)
	d2, err := managerClient(t, m, srv).Register(d1, NewOpSet(sctest.OpGet), NewOpSet(sctest.OpAdd))
	if err != nil {
		t.Fatal(err)
	}
	return d2, ctr, d1
}

// counterDoor is a server door (D1) in front of a fresh counter.
func counterDoor(srv *core.Env) (kernel.Handle, *sctest.Counter) {
	ctr := &sctest.Counter{}
	d1, _ := srv.Domain.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
		reply := buffer.New(64)
		// A plain stub-style server: [opnum][args] → [status][results].
		skel := ctr.Skeleton()
		op, err := req.ReadUint32()
		if err != nil {
			return nil, err
		}
		results := buffer.New(32)
		if err := skel.Dispatch(core.OpNum(op), req, results); err != nil {
			return nil, err
		}
		reply.Splice(results)
		return reply, nil
	}, nil)
	return d1, ctr
}

// managerClient presents the manager's own Spring interface in srv.
func managerClient(t *testing.T, m *Manager, srv *core.Env) Client {
	t.Helper()
	cp, err := m.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	mgrObj, err := sctest.Transfer(cp, srv, ManagerMT)
	if err != nil {
		t.Fatal(err)
	}
	return Client{Obj: mgrObj}
}

// call performs a raw [opnum][args] call through h.
func call(t *testing.T, dom *kernel.Domain, h kernel.Handle, op core.OpNum, args func(*buffer.Buffer)) *buffer.Buffer {
	t.Helper()
	req := buffer.New(32)
	req.WriteUint32(uint32(op))
	if args != nil {
		args(req)
	}
	reply, err := dom.Call(h, req)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestHitMissForward(t *testing.T) {
	m, _, srv := setup(t)
	d2, ctr, _ := clientFor(t, m, srv)

	call(t, srv.Domain, d2, sctest.OpGet, nil) // miss
	call(t, srv.Domain, d2, sctest.OpGet, nil) // hit
	if s := m.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if ctr.Calls() != 1 {
		t.Fatalf("server calls = %d, want 1", ctr.Calls())
	}
	// An invalidating op forwards and clears.
	call(t, srv.Domain, d2, sctest.OpAdd, func(b *buffer.Buffer) { b.WriteInt64(5) })
	if s := m.Stats(); s.Invalidns != 1 || s.Forwards != 1 {
		t.Fatalf("stats = %+v", s)
	}
	reply := call(t, srv.Domain, d2, sctest.OpGet, nil)
	if v, _ := reply.ReadInt64(); v != 5 {
		t.Fatalf("get after invalidation = %d, want 5 (stale cache)", v)
	}
}

func TestDistinctArgumentsDistinctEntries(t *testing.T) {
	m, _, srv := setup(t)
	d2, ctr, _ := clientFor(t, m, srv)
	_ = ctr

	// Boom is neither cacheable nor invalidating here; use Get with
	// different "argument" bytes by faking two different cacheable calls:
	// the op is Get, the key includes the args.
	call(t, srv.Domain, d2, sctest.OpGet, nil)
	call(t, srv.Domain, d2, sctest.OpGet, func(b *buffer.Buffer) { b.WriteInt64(1) })
	if s := m.Stats(); s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 distinct misses", s)
	}
}

func TestEntriesDedupeBySameDoor(t *testing.T) {
	m, _, srv := setup(t)
	_, _, d1 := clientFor(t, m, srv)

	// Registering the same server door again must share the entry (and
	// therefore the cache).
	d2b, err := managerClient(t, m, srv).Register(d1, NewOpSet(sctest.OpGet), NewOpSet(sctest.OpAdd))
	if err != nil {
		t.Fatal(err)
	}
	if entries := m.EntryCount(); entries != 1 {
		t.Fatalf("entries = %d, want 1 (dedupe by door identity)", entries)
	}
	_ = d2b

	// Concurrently: 32 registrations of one new door race to create its
	// entry, and every cache door they return serves the one cache.
	m, mgrEnv, srv := setup(t)
	d1, ctr := counterDoor(srv)
	const racers = 32
	refs := make([]kernel.Ref, racers)
	for i := range refs {
		if refs[i], err = srv.Domain.RefOf(d1); err != nil {
			t.Fatal(err)
		}
	}
	d2s := make([]kernel.Ref, racers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			d2s[i] = m.register(refs[i], NewOpSet(sctest.OpGet), NewOpSet(sctest.OpAdd))
		}()
	}
	start.Done()
	wg.Wait()
	if entries := m.EntryCount(); entries != 1 {
		t.Fatalf("after %d concurrent registrations: entries = %d, want 1", racers, entries)
	}
	for i, d2 := range d2s {
		h := mgrEnv.Domain.AdoptRef(d2)
		call(t, mgrEnv.Domain, h, sctest.OpGet, nil) // the first is the one miss
		if s := m.Stats(); s.Misses != 1 || s.Hits != uint64(i) {
			t.Fatalf("cache door %d: stats = %+v, want 1 miss and %d hits", i, s, i)
		}
	}
	if ctr.Calls() != 1 {
		t.Fatalf("server calls = %d, want 1", ctr.Calls())
	}
}

func TestDoorCarryingCallsNotCached(t *testing.T) {
	m, _, srv := setup(t)
	d2, ctr, _ := clientFor(t, m, srv)

	// A cacheable op whose arguments carry a door must be forwarded, not
	// served from (or stored in) the cache: capabilities cannot replay.
	mk := func() *buffer.Buffer {
		req := buffer.New(32)
		req.WriteUint32(uint32(sctest.OpGet))
		h, _ := srv.Domain.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) {
			return buffer.New(0), nil
		}, nil)
		if err := srv.Domain.MoveToBuffer(h, req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	for i := 0; i < 2; i++ {
		req := mk()
		reply, err := srv.Domain.Call(d2, req)
		if err != nil {
			t.Fatal(err)
		}
		kernel.ReleaseBufferDoors(reply)
	}
	if s := m.Stats(); s.Hits != 0 {
		t.Fatalf("door-carrying call served from cache: %+v", s)
	}
	if ctr.Calls() != 2 {
		t.Fatalf("server calls = %d, want 2", ctr.Calls())
	}
}

func TestOpSetRoundTrip(t *testing.T) {
	f := func(ops []uint32) bool {
		s := make(OpSet, len(ops))
		for _, op := range ops {
			s[op] = struct{}{}
		}
		b := buffer.New(64)
		s.MarshalTo(b)
		got, err := ReadOpSet(b)
		if err != nil || len(got) != len(s) {
			return false
		}
		for op := range s {
			if !got.Has(op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpSetHelpers(t *testing.T) {
	s := NewOpSet(1, 2, 300)
	if !s.Has(1) || !s.Has(300) || s.Has(3) {
		t.Fatalf("membership wrong: %v", s)
	}
	var empty OpSet
	if empty.Has(0) {
		t.Fatal("empty set has members")
	}
	b := buffer.New(8)
	empty.MarshalTo(b)
	got, err := ReadOpSet(b)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip = %v, %v", got, err)
	}
}

func TestReadOpSetTruncated(t *testing.T) {
	b := buffer.New(8)
	b.WriteUvarint(5) // claims 5 entries, provides none
	if _, err := ReadOpSet(b); err == nil {
		t.Fatal("truncated op set accepted")
	}
	b.Reset()
	b.WriteUvarint(1 << 40) // claims what no buffer holds: refused unsized
	if _, err := ReadOpSet(b); !errors.Is(err, buffer.ErrBadCount) {
		t.Fatalf("op set of 2^40 entries: %v, want ErrBadCount", err)
	}
}
