package repro_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

// ---------------------------------------------------------------------
// E16 — the intra-machine half of the throughput story: the null local
// door call (§9.1 prices it) and the cache manager's hit path (§8.2 is
// "deliberately profligate at unmarshal time to win at invoke time", so
// the invoke-time number is the one that must scale). Where E15 measures
// what the netd data path sustains across machines, E16 measures what
// the kernel door path and the cache manager sustain when many threads
// on one machine hammer one door / one cached object: the costs under
// test are the per-door reference-count and revocation-flag
// synchronization, the handle-table lookup, the cache manager's entry
// index, and the per-hit copying and counter updates.
//
// Knobs: parallelism ∈ {1, 8, 64} concurrent callers × workload mix
// (hot: every read is the same key; cold: every read is a fresh key, so
// every call takes the miss path through to the server; inval: hot reads
// with one invalidating write per 64 calls). Reported: ns/op and calls/s.

// e16NullDoor builds the minimal local-call fixture: a door whose target
// does nothing and replies with nothing, its identifier transferred to a
// second domain the way an IPC would.
func e16NullDoor(b *testing.B) (*kernel.Domain, kernel.Handle) {
	b.Helper()
	k := kernel.New("e16")
	srv := k.NewDomain("server")
	cli := k.NewDomain("client")
	h, _ := srv.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
		return nil, nil
	}, nil)
	moved := buffer.New(8)
	if err := srv.MoveToBuffer(h, moved); err != nil {
		b.Fatal(err)
	}
	ch, err := cli.AdoptFromBuffer(moved)
	if err != nil {
		b.Fatal(err)
	}
	return cli, ch
}

// e16Split runs fn(n) on parallelism goroutines, splitting b.N between
// them, and reports calls/s (the E15 convention).
func e16Split(b *testing.B, parallelism int, fn func(n int) error) {
	var failed atomic.Value
	b.ResetTimer()
	var wg sync.WaitGroup
	per, rem := b.N/parallelism, b.N%parallelism
	for g := 0; g < parallelism; g++ {
		n := per
		if g < rem {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if err := fn(n); err != nil {
				failed.Store(err)
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	if err := failed.Load(); err != nil {
		b.Fatal(err)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "calls/s")
	}
}

// E16NullLocalCall measures the null local door call under parallelism
// concurrent callers: handle lookup, door dispatch, and nothing else.
func E16NullLocalCall(parallelism int) func(*testing.B) {
	return func(b *testing.B) {
		cli, ch := e16NullDoor(b)
		if _, err := cli.Call(ch, buffer.New(0)); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		e16Split(b, parallelism, func(n int) error {
			req := buffer.New(0)
			for i := 0; i < n; i++ {
				if _, err := cli.Call(ch, req); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// E16DupRelease measures the door reference-count round trip (Dup then
// Release, never the last reference) under parallelism goroutines — the
// operation every identifier copy, buffer transfer and proxy fabrication
// performs.
func E16DupRelease(parallelism int) func(*testing.B) {
	return func(b *testing.B) {
		cli, ch := e16NullDoor(b)
		ref, err := cli.RefOf(ch)
		if err != nil {
			b.Fatal(err)
		}
		defer ref.Release()
		b.ReportAllocs()
		e16Split(b, parallelism, func(n int) error {
			for i := 0; i < n; i++ {
				ref.Dup().Release()
			}
			return nil
		})
	}
}

// Operation numbers for the E16 cache fixture's server interface.
const (
	e16OpRead  = 0 // cacheable: [key uint64] → [payload bytes]
	e16OpWrite = 1 // invalidating: [] → []
)

// e16Cache wires a cache door in front of a payload server on one
// machine and returns everything the workloads need.
type e16Cache struct {
	dom   *kernel.Domain
	d2    kernel.Handle
	calls atomic.Uint64 // server-side call count (reads that missed)
}

func e16CacheSetup(b *testing.B, payload int) *e16Cache {
	b.Helper()
	k := kernel.New("e16")
	mgrEnv, err := sctest.NewEnv(k, "cachemgr", singleton.Register)
	if err != nil {
		b.Fatal(err)
	}
	srvEnv, err := sctest.NewEnv(k, "server", singleton.Register)
	if err != nil {
		b.Fatal(err)
	}
	m := cache.NewManager(mgrEnv)

	c := &e16Cache{dom: srvEnv.Domain}
	data := make([]byte, payload)
	d1, _ := srvEnv.Domain.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
		op, err := req.ReadUint32()
		if err != nil {
			return nil, err
		}
		switch op {
		case e16OpRead:
			if _, err := req.ReadUint64(); err != nil {
				return nil, err
			}
			c.calls.Add(1)
			reply := buffer.New(len(data) + 8)
			reply.WriteBytes(data)
			return reply, nil
		default: // e16OpWrite
			return buffer.New(0), nil
		}
	}, nil)

	cp, err := m.Object().Copy()
	if err != nil {
		b.Fatal(err)
	}
	mgrObj, err := sctest.Transfer(cp, srvEnv, cache.ManagerMT)
	if err != nil {
		b.Fatal(err)
	}
	c.d2, err = cache.Client{Obj: mgrObj}.Register(d1,
		cache.NewOpSet(e16OpRead), cache.NewOpSet(e16OpWrite))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// read issues one cacheable read for key through the cache door, reusing
// req across calls.
func (c *e16Cache) read(key uint64, req *buffer.Buffer) error {
	req.Reset()
	req.WriteUint32(e16OpRead)
	req.WriteUint64(key)
	reply, err := c.dom.Call(c.d2, req)
	if err != nil {
		return err
	}
	buffer.Put(reply)
	return nil
}

// write issues one invalidating write through the cache door.
func (c *e16Cache) write(req *buffer.Buffer) error {
	req.Reset()
	req.WriteUint32(e16OpWrite)
	reply, err := c.dom.Call(c.d2, req)
	if err != nil {
		return err
	}
	buffer.Put(reply)
	return nil
}

// E16CachedRead measures cached-read throughput through a cache door
// with 1KiB replies under parallelism concurrent callers. mix selects
// the workload: "hot" rereads one key (every timed call is a hit),
// "cold" reads a fresh key every call (every timed call takes the miss
// path to the server and stores the reply), "inval" rereads one key with
// one invalidating write per 64 calls (steady hits punctuated by cache
// clears and re-fills).
func E16CachedRead(parallelism int, mix string) func(*testing.B) {
	return func(b *testing.B) {
		c := e16CacheSetup(b, 1024)
		warm := buffer.New(32)
		if err := c.read(0, warm); err != nil { // warm the hot key + pools
			b.Fatal(err)
		}
		var coldKey atomic.Uint64
		b.ReportAllocs()
		e16Split(b, parallelism, func(n int) error {
			req := buffer.New(32)
			for i := 0; i < n; i++ {
				switch mix {
				case "cold":
					if err := c.read(1+coldKey.Add(1), req); err != nil {
						return err
					}
				case "inval":
					if i%64 == 63 {
						if err := c.write(req); err != nil {
							return err
						}
						continue
					}
					fallthrough
				default: // "hot"
					if err := c.read(0, req); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
}
