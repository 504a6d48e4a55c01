package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/buffer"
	"repro/internal/dispatch"
	"repro/internal/filesys"
	"repro/internal/kernel"
)

// Probes: the benchmark times calls into each layer's public functions
// in its own process, no network and no server, for a fraction of a
// second each. They price one layer alone, so when an end-to-end number
// moves they say which layer's own cost moved with it.

// timeOp reports fn's cost in nanoseconds as the median of the means of
// batches of 256 calls over d: a batch mean hides the clock's own cost,
// the median across batches hides a preemption.
func timeOp(d time.Duration, fn func() error) (float64, error) {
	const batch = 256
	for i := 0; i < batch; i++ { // warm pools and caches
		if err := fn(); err != nil {
			return 0, err
		}
	}
	var means []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		means = append(means, float64(time.Since(t0))/batch)
	}
	return median(means), nil
}

// localFile exports one 64 KiB file from svc and returns the client
// domain's stub for it.
func (m *machine) localFile(svc *filesys.Service) (filesys.File, error) {
	cli, err := m.clientEnv()
	if err != nil {
		return filesys.File{}, err
	}
	cp, err := svc.Object().Copy()
	if err != nil {
		return filesys.File{}, err
	}
	fsObj, err := transfer(cp, cli, filesys.FileSystemMT)
	if err != nil {
		return filesys.File{}, err
	}
	f, err := filesys.FileSystem{Obj: fsObj}.Create("probe")
	if err != nil {
		return filesys.File{}, err
	}
	_, err = f.Write(0, make([]byte, 64*kib))
	return f, err
}

// runProbes measures every probe metric. walDir is a scratch directory on
// the filesystem the durable workload's WAL lives on; each probe measures
// for d.
func runProbes(walDir string, d time.Duration) (map[string]float64, error) {
	// kernel: a null door call between two domains.
	k := kernel.New("probe-door")
	srvDom, cliDom := k.NewDomain("server"), k.NewDomain("client")
	reply := buffer.New(8)
	h, _ := srvDom.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) { return reply, nil }, nil)
	moved := buffer.New(8)
	if err := srvDom.MoveToBuffer(h, moved); err != nil {
		return nil, err
	}
	door, err := cliDom.AdoptFromBuffer(moved)
	if err != nil {
		return nil, err
	}
	req := buffer.New(8)

	// The generated stubs on in-process services — stub, subcontract,
	// door, skeleton, and no netd: a plain one, a caching one (a repeated
	// read is served by the cache manager after the first), and one over
	// a WAL (a single writer, so every write is its own group commit:
	// append + fsync + the committer hand-off).
	m, err := newMachine("probe")
	if err != nil {
		return nil, err
	}
	plainEnv, err := m.env("plain")
	if err != nil {
		return nil, err
	}
	plain, err := m.localFile(filesys.NewService(plainEnv))
	if err != nil {
		return nil, err
	}
	cachingEnv, err := m.env("caching")
	if err != nil {
		return nil, err
	}
	cached, err := m.localFile(filesys.NewCachingService(cachingEnv, "cachemgr"))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(walDir, "probe-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store := filesys.NewStore()
	wal, err := filesys.OpenWAL(dir, store, filesys.WALOptions{})
	if err != nil {
		return nil, err
	}
	walEnv, err := m.env("wal")
	if err != nil {
		return nil, err
	}
	durable, err := m.localFile(filesys.NewServiceWithStore(walEnv, store))
	if err != nil {
		return nil, err
	}

	// dispatch: submit one item to an idle pool and wait for it to run —
	// the queued path's wake-up round trip.
	eng := dispatch.New(dispatch.Config{})
	defer eng.Close()
	ran := make(chan struct{}, 1)

	p1k, p64k, block := make([]byte, kib), make([]byte, 64*kib), make([]byte, kib)
	bufferRoundTrip := func(p []byte) func() error {
		// Get → marshal → unmarshal → Put, the per-byte path every
		// payload takes at least twice.
		return func() error {
			b := buffer.Get(len(p) + 16)
			b.WriteBytes(p)
			_, err := b.ReadBytes()
			buffer.Put(b)
			return err
		}
	}
	out := make(map[string]float64)
	for _, p := range []struct {
		name string
		fn   func() error
	}{
		{"buffer.roundtrip_1k_ns", bufferRoundTrip(p1k)},
		{"buffer.roundtrip_64k_ns", bufferRoundTrip(p64k)},
		{"kernel.door_call_ns", func() error { _, err := cliDom.Call(door, req); return err }},
		{"stubs.local_version_ns", func() error { _, err := plain.Version(); return err }},
		{"stubs.local_read_1k_ns", func() error { _, err := plain.Read(0, kib); return err }},
		{"filesys.local_write_1k_ns", func() error { _, err := plain.Write(0, block); return err }},
		{"cache.local_hit_ns", func() error { _, err := cached.Read(0, kib); return err }},
		{"dispatch.submit_run_ns", func() error {
			if err := eng.Submit(0, func() { ran <- struct{}{} }); err != nil {
				return err
			}
			<-ran
			return nil
		}},
	} {
		if out[p.name], err = timeOp(d, p.fn); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}

	// The WAL write is a median of single calls, not of batch means: one
	// fsync dwarfs the clock, and its distribution is what matters.
	var h1 hist
	for end := time.Now().Add(2 * d); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := durable.Write(0, block); err != nil {
			return nil, fmt.Errorf("probe filesys.wal_write_c1_p50_us: %w", err)
		}
		h1.record(int64(time.Since(t0)))
	}
	out["filesys.wal_write_c1_p50_us"] = resultOf(&h1).p50
	return out, wal.Close()
}
