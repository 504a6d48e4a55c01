package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

// rawEntry registers a raw door server with the manager (bypassing the
// Spring stub machinery) and returns a handle to the cache door, callable
// from dom.
func rawEntry(t *testing.T, m *Manager, dom *kernel.Domain, proc kernel.ServerProc, cacheable, invalidate OpSet) kernel.Handle {
	t.Helper()
	d1, _ := dom.CreateDoor(proc, nil)
	ref, err := dom.RefOf(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := m.register(ref, cacheable, invalidate)
	return dom.AdoptRef(d2)
}

func rawReq(op uint32, key uint64) *buffer.Buffer {
	req := buffer.New(16)
	req.WriteUint32(op)
	req.WriteUint64(key)
	return req
}

// TestMissCoalescing is the thundering-herd regression test: concurrent
// misses for one key must collapse into a single server call, with the
// followers sharing the leader's reply.
func TestMissCoalescing(t *testing.T) {
	m, _, srv := setup(t)

	var serverCalls atomic.Int32
	gate := make(chan struct{})
	d2 := rawEntry(t, m, srv.Domain, func(req *buffer.Buffer) (*buffer.Buffer, error) {
		serverCalls.Add(1)
		<-gate // hold the leader's call open while followers pile up
		out := buffer.New(16)
		out.WriteUint64(42)
		return out, nil
	}, NewOpSet(0), nil)

	const followers = 7
	results := make(chan uint64, followers+1)
	do := func() {
		rep, err := srv.Domain.Call(d2, rawReq(0, 1))
		if err != nil {
			t.Error(err)
			results <- 0
			return
		}
		v, _ := rep.ReadUint64()
		results <- v
	}

	go do() // leader
	deadline := time.Now().Add(5 * time.Second)
	for serverCalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < followers; i++ {
		go do()
	}
	// Wait until every follower has attached to the leader's flight, then
	// let the server reply.
	for m.Stats().CoalescedMisses < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers coalesced", m.Stats().CoalescedMisses, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	for i := 0; i < followers+1; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("reply %d = %d, want 42", i, v)
		}
	}
	if n := serverCalls.Load(); n != 1 {
		t.Fatalf("server called %d times for one herd, want 1", n)
	}
	s := m.Stats()
	if s.Misses != 1 || s.CoalescedMisses != followers {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", s, followers)
	}
}

// TestConcurrentHitMissInvalidate hammers one entry with a mix of hot
// reads, cold reads and invalidating writes (for -race), then checks the
// counters add up: every cacheable read is exactly one of hit, miss or
// coalesced miss.
func TestConcurrentHitMissInvalidate(t *testing.T) {
	m, _, srv := setup(t)

	d2 := rawEntry(t, m, srv.Domain, func(req *buffer.Buffer) (*buffer.Buffer, error) {
		out := buffer.New(16)
		out.WriteUint64(7)
		return out, nil
	}, NewOpSet(0), NewOpSet(1))

	const goroutines = 8
	const iters = 300
	var reads, writes atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var req *buffer.Buffer
				switch i % 8 {
				case 7:
					req = rawReq(1, 0) // invalidating write
					writes.Add(1)
				case 5:
					req = rawReq(0, uint64(g*iters+i)) // cold read
					reads.Add(1)
				default:
					req = rawReq(0, 0) // hot read
					reads.Add(1)
				}
				if _, err := srv.Domain.Call(d2, req); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	s := m.Stats()
	if got := s.Hits + s.Misses + s.CoalescedMisses; got != reads.Load() {
		t.Fatalf("hits(%d)+misses(%d)+coalesced(%d) = %d, want %d reads",
			s.Hits, s.Misses, s.CoalescedMisses, got, reads.Load())
	}
	if s.Invalidns != writes.Load() {
		t.Fatalf("invalidations = %d, want %d", s.Invalidns, writes.Load())
	}
}

// TestReplyBudgetBounded pushes a 10 MiB working set through a manager
// with a 1 MiB reply budget: the live bytes must stay within budget, the
// overflow must surface as evictions, and the most recently used subset
// must still be served from cache.
func TestReplyBudgetBounded(t *testing.T) {
	k := kernel.New("m1")
	mgrEnv, err := sctest.NewEnv(k, "cachemgr", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	srvEnv, err := sctest.NewEnv(k, "server", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 20
	m := NewManager(mgrEnv)
	m.budget = budget

	payload := make([]byte, 64<<10)
	d2 := rawEntry(t, m, srvEnv.Domain, func(req *buffer.Buffer) (*buffer.Buffer, error) {
		out := buffer.New(len(payload))
		out.WriteRaw(payload)
		return out, nil
	}, NewOpSet(0), nil)

	const keys = 160 // × 64 KiB = 10 MiB working set
	for i := 0; i < keys; i++ {
		if _, err := srvEnv.Domain.Call(d2, rawReq(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
		if live := m.Stats().BytesLive; live > budget {
			t.Fatalf("bytes_live = %d after key %d, budget %d", live, i, budget)
		}
	}
	s := m.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions with a %d-byte budget and 10 MiB stored", budget)
	}
	if s.BytesLive > budget {
		t.Fatalf("bytes_live = %d, budget %d", s.BytesLive, budget)
	}

	// The hot (most recently used) subset must still hit.
	before := m.Stats().Hits
	for i := keys - 5; i < keys; i++ {
		if _, err := srvEnv.Domain.Call(d2, rawReq(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if hits := m.Stats().Hits - before; hits != 5 {
		t.Fatalf("hot-subset hits = %d/5 after cold sweep", hits)
	}
}

// TestAllocsCacheHit guards the hit path: serving a cached reply from a
// pooled buffer must cost at most 2 allocations per call.
func TestAllocsCacheHit(t *testing.T) {
	m, _, srv := setup(t)

	d2 := rawEntry(t, m, srv.Domain, func(req *buffer.Buffer) (*buffer.Buffer, error) {
		out := buffer.New(16)
		out.WriteUint64(7)
		return out, nil
	}, NewOpSet(0), nil)

	req := buffer.New(16)
	load := func() {
		req.Reset()
		req.WriteUint32(0)
		req.WriteUint64(1)
	}
	load()
	if _, err := srv.Domain.Call(d2, req); err != nil { // prime the cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		load()
		rep, err := srv.Domain.Call(d2, req)
		if err != nil {
			t.Fatal(err)
		}
		buffer.Put(rep)
	}); n > 2 {
		t.Fatalf("cache-hit serve allocates %.1f objects/op, want <= 2", n)
	}
}
