package filesys

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/scstats"
	"repro/internal/stubs"
)

// Tests for natural group commit: no timer, the batch is whatever queued
// during the last fsync, and the dispatch stage in front of the WAL lets
// every blocked writer be a record in that queue.

// syncStub is a log file whose Sync is replaced.
type syncStub struct {
	durable.File
	sync func() error
}

func (f syncStub) Sync() error { return f.sync() }

// openStubbedWAL opens a WAL with opts over a fresh store whose log file's
// fsync is replaced by sync. The committer reads w.f only after taking w.mu
// behind the first append, so setting it here, before any mutation, is
// ordered before it.
func openStubbedWAL(t *testing.T, opts WALOptions, sync func() error) (*Store, *WAL) {
	t.Helper()
	s := NewStore()
	w, err := OpenWAL(t.TempDir(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	w.f = syncStub{w.f, sync}
	return s, w
}

func TestGroupCommitGroups(t *testing.T) {
	// Sixteen remote writers, two processors, an fsync of one millisecond.
	// A remote door must admit as many blocked callers as a local one: all
	// sixteen handlers are inside the server at once, and each fsync commits
	// what queued during the one before it. A closed-loop writer acknowledged
	// by one fsync is back in the queue during the next and committed by the
	// one after, so each writer has one record in every two fsyncs: any two
	// fsyncs in a row commit sixteen records, eight apiece, however the
	// writers split between them. Eight is therefore the ceiling as well as
	// the bar — a writer held up for a millisecond misses its turn and that
	// pair commits fifteen — so the bar is put on the median pair past the
	// ramp, and the mean over the same fsyncs may fall short of it by no more
	// than one record. Behind a pool of GOMAXPROCS workers the same load
	// shared fsyncs two at a time. The race detector multiplies the CPU a
	// call costs several times over, so under it the fsync is four times
	// as long: a writer's way back into the queue must fit in the other
	// group's fsync, as it does at full speed, for the bars to measure
	// group commit and not the detector.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const writers, rounds, ramp, pairs = 16, 50, 5, 30
	fsync := time.Millisecond
	if raceEnabled {
		fsync *= 4
	}
	inflight := scstats.GaugeFor("netd.serve_inflight")
	// wal.appends moves when an fsync acknowledges what was written before
	// it began (or a compaction, which these small records never wait
	// for), and the committer calls the stub before it counts: the
	// difference between two calls is the size of the batch between them.
	var committed []int64
	var peak atomic.Int64
	store, _ := openStubbedWAL(t, WALOptions{}, func() error {
		committed = append(committed, gWALAppends.Value())
		if n := inflight.Value(); n > peak.Load() {
			peak.Store(n) // only the committer stores
		}
		time.Sleep(fsync)
		return nil
	})

	files := remoteFiles(t, store, writers)
	committed = committed[:0] // the creates are acknowledged: the committer is idle
	block := bytes.Repeat([]byte{0x5A}, 1<<10)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i, f := range files {
		wg.Add(1)
		go func(i int, f File) {
			defer wg.Done()
			for r := 0; r < rounds && errs[i] == nil; r++ {
				_, errs[i] = f.Write(int64(r)<<10, block)
			}
		}(i, f)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	// (A reply goes out before its admission slot is released, so a writer's
	// next call can be admitted while its last is still counted.)
	if got := peak.Load(); got < writers {
		t.Errorf("at most %d handlers were in the server at once, want all %d", got, writers)
	}
	first := sort.Search(len(committed), func(i int) bool { return committed[i]-committed[0] >= writers*ramp })
	if len(committed) <= first+2*pairs {
		t.Fatalf("%d fsyncs, %d of them ramp: fewer than %d pairs to measure", len(committed), first, pairs)
	}
	steady := committed[first : first+2*pairs+1]
	perPair := make([]int64, pairs)
	for i := range perPair {
		perPair[i] = steady[2*i+2] - steady[2*i]
	}
	sort.Slice(perPair, func(i, j int) bool { return perPair[i] < perPair[j] })
	median := float64(perPair[pairs/2]) / 2
	mean := float64(steady[2*pairs]-steady[0]) / (2 * pairs)
	if median < 8 || mean < 7 {
		t.Errorf("records per fsync over %d fsyncs past the ramp: median %.1f, mean %.2f; want >= 8 and >= 7", 2*pairs, median, mean)
	}
	t.Logf("%d handlers in flight at once; records per fsync: median %.1f, mean %.2f", peak.Load(), median, mean)
}

// remoteFiles serves store from machine A and creates n files in it from
// machine B, over loopback TCP; B's proxies are returned.
func remoteFiles(t *testing.T, store *Store, n int) []File {
	t.Helper()
	start := func(name string) (*kernel.Kernel, *netd.Server) {
		k := kernel.New(name)
		srv, err := netd.Start(k.NewDomain(name+"-netd"), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return k, srv
	}
	ka, a := start("A")
	kb, b := start("B")
	a.PublishRoot("fs", NewServiceWithStore(env(t, ka, "A-fs"), store).Object())
	root, err := b.ImportRootObject(env(t, kb, "B-app"), a.Addr(), "fs", FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]File, n)
	for i := range files {
		if files[i], err = (FileSystem{Obj: root}).Create(fmt.Sprintf("w%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestBlockingBurstHandsBack(t *testing.T) {
	// Sixteen remote 64 KiB writes, all blocked on their group commit at
	// once: the first fsync is held until the sixteenth handler is in the
	// server. Blocked handlers are outside the hand-off's budget (E28), so
	// holding each request frame across the fsync made one payload-sized
	// array per writer, sixteen. Each now writes its record out and gives
	// its frame back before it waits, and the burst makes a few. The
	// client is in this process, so its calls are sent one at a time, and
	// it marshals outside the pool: what is counted is the server's frames
	// and one the client sends from.
	const writers, size = 16, 64 << 10
	var hold atomic.Bool
	store, _ := openStubbedWAL(t, WALOptions{}, func() error {
		for hold.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	files := remoteFiles(t, store, writers)
	inflight := scstats.GaugeFor("netd.serve_inflight")
	block := bytes.Repeat([]byte{0xA5}, size)
	hold.Store(true)
	buffer.Trim() // twice: no array is idle, so every array the burst
	buffer.Trim() // needs at once is one it makes
	before, logged := buffer.Stats(), gWALBytes.Value()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i, f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := buffer.New(size + 32)
			args.WriteUint32(uint32(FileWriteOp))
			args.WriteInt64(0)
			args.WriteBytes(block)
			call := core.NewCall(FileWriteOp)
			call.SetArgs(args)
			reply, err := f.Obj.Invoke(call)
			if err == nil {
				err = stubs.DecodeReply(reply, nil)
			}
			errs[i] = err
		}()
		// The next writer starts once this one is in the server and its
		// record is on the log — or 20 ms on, where records wait for the
		// held fsync to be written.
		for start := time.Now(); inflight.Value() <= int64(i) ||
			gWALBytes.Value() < logged+int64(i+1)*size && time.Since(start) < 20*time.Millisecond; {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("%d of %d writers in the server after 10s", inflight.Value(), i+1)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	hold.Store(false)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if d := buffer.Stats().Sub(before); d.LargeAllocs > writers/2 {
		t.Errorf("%d payload-sized arrays made for %d writers blocked on their fsync, want at most %d", d.LargeAllocs, writers, writers/2)
	} else {
		t.Logf("%d payload-sized arrays for %d blocked writers", d.LargeAllocs, writers)
	}
}

func TestLoneDurableWriteDoesNotLinger(t *testing.T) {
	// One writer has nobody to share an fsync with, so waiting for company
	// only adds to its latency — and the 200 µs the committer used to sleep
	// came to over a millisecond under an idle runtime. With the fsync
	// stubbed out, what is left is the hand-off to the committer and back.
	s, _ := openStubbedWAL(t, WALOptions{}, func() error { return nil })
	st := mustCreate(t, s, "lone")
	block := bytes.Repeat([]byte{0x33}, 1<<10)
	lat := make([]time.Duration, 400)
	for i := range lat {
		t0 := time.Now()
		mustWrite(t, st, 0, block)
		lat[i] = time.Since(t0)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p50 := lat[len(lat)/2]; p50 >= 100*time.Microsecond {
		t.Fatalf("a lone durable write with a free fsync takes %v at the median, want < 100µs", p50)
	}
}

func TestCompactionAcknowledgesWritten(t *testing.T) {
	// A payload record its writer wrote during the committer's fsync is on
	// the log and covered by no fsync when the checkpoint after that fsync
	// comes. The snapshot holds it, so the checkpoint acknowledges it —
	// counted once, as one sync — and no further fsync of the log is made
	// for it: the held fsync and the checkpoint's own after its truncate.
	var hold atomic.Bool
	var calls atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	s, _ := openStubbedWAL(t, WALOptions{CompactBytes: 1}, func() error {
		calls.Add(1)
		if hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		return nil
	})
	t.Cleanup(free) // runs before the WAL's Close, which a held fsync would block
	until := func(what string, done func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s did not happen", what)
			}
		}
	}
	// A create and a write, each leaving a log longer than the store: two
	// checkpoints, both over before the fsync is held.
	ckpts := gWALCompactions.Value()
	st := mustCreate(t, s, "c")
	payload := bytes.Repeat([]byte{0x3C}, 64<<10)
	mustWrite(t, st, 0, payload)
	until("the first two checkpoints", func() bool { return gWALCompactions.Value() >= ckpts+2 })
	appends, syncs, ckpts := gWALAppends.Value(), gWALSyncs.Value(), gWALCompactions.Value()
	hold.Store(true)
	calls.Store(0)
	done := make(chan error, 2)
	go func() { _, err := st.write(0, []byte("small"), nil); done <- err }()
	<-held
	logged := gWALBytes.Value()
	go func() { _, err := st.write(0, payload, nil); done <- err }()
	until("the payload's write during the held fsync", func() bool { return gWALBytes.Value() >= logged+64<<10 })
	free()
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	until("the second checkpoint", func() bool { return gWALCompactions.Value() > ckpts })
	if a, y, c, n := gWALAppends.Value()-appends, gWALSyncs.Value()-syncs, gWALCompactions.Value()-ckpts, calls.Load(); a != 2 || y != 2 || c != 1 || n != 2 {
		t.Fatalf("%d records acknowledged in %d syncs, %d checkpoints, %d fsyncs of the log; want 2, 2, 1, 2", a, y, c, n)
	}
}

func TestCompactionFollowsStore(t *testing.T) {
	// The checkpoint threshold is the larger of CompactBytes and the store:
	// rewriting a 1 MiB store for every 64 KiB of log would be sixteen bytes
	// of checkpoint per byte logged; following the store it is at most one.
	s := NewStore()
	w, err := OpenWAL(t.TempDir(), s, WALOptions{CompactBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := mustCreate(t, s, "big")
	mustWrite(t, st, 0, bytes.Repeat([]byte{1}, 1<<20))
	before := gWALCompactions.Value()
	chunk := bytes.Repeat([]byte{2}, 32<<10)
	const logged = 4 << 20
	for n := 0; n < logged; n += len(chunk) {
		mustWrite(t, st, int64(n%(1<<20)), chunk)
	}
	if got := gWALCompactions.Value() - before; got < 2 || got > logged/(1<<20) {
		t.Fatalf("%d checkpoints of a 1 MiB store over 4 MiB of log, want 2 to 4", got)
	}
}

// frameReference frames rec the way the log was written before records
// could carry their data by reference: payload encoded whole by
// encodeRecord, summed in one piece.
func frameReference(rec *walRecord) []byte {
	var payload, out buffer.Buffer
	encodeRecord(&payload, rec)
	out.WriteUint32(uint32(payload.Size()))
	out.WriteUint32(crc32.ChecksumIEEE(payload.Bytes()))
	out.WriteRaw(payload.Bytes())
	return out.Bytes()
}

func FuzzWALRecord(f *testing.F) {
	// Two properties of the one on-disk record format. Encoding: a record
	// framed by the committer — header patched in place, large data left
	// out of the buffer and summed by continuation — is byte for byte what
	// the reference encoder produces, and replays to the record it came
	// from. Decoding: replay of arbitrary bytes never panics, and whatever
	// it rejects it rejects with a typed error and the store untouched.
	f.Add(byte(walOpCreate), "a", int64(0), uint32(0), []byte(nil))
	f.Add(byte(walOpRemove), "doomed", int64(0), uint32(0), []byte(nil))
	f.Add(byte(walOpWrite), "f", int64(5), uint32(2), []byte(" wal"))
	f.Add(byte(walOpWrite), "by-reference", int64(extentSize-1), uint32(7), bytes.Repeat([]byte{0xA5}, walRefBytes))
	f.Add(byte(walOpWrite), "inline", int64(1<<29), uint32(1<<31), bytes.Repeat([]byte{0x5A}, walRefBytes-1))
	f.Add(byte(walOpWrite), "", int64(-1), uint32(1), []byte("out of range"))
	f.Add(byte(9), "bad opcode", int64(0), uint32(0), []byte{0, 0, 0, 64, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Fuzz(func(t *testing.T, op byte, name string, offset int64, version uint32, data []byte) {
		rec := walRecord{op: op, name: name, offset: offset, version: version, data: data}
		var out buffer.Buffer
		ref := frameRecord(&out, &rec)
		if len(ref) > 0 && len(ref) < walRefBytes {
			t.Fatalf("%d bytes of data left out of the buffer, below the %d threshold", len(ref), walRefBytes)
		}
		framed := append(append([]byte(nil), out.Bytes()...), ref...)
		if want := frameReference(&rec); !bytes.Equal(framed, want) {
			t.Fatalf("record framed in place (%d bytes, %d by reference) differs from the reference encoding (%d bytes)",
				len(framed), len(ref), len(want))
		}

		valid := (op == walOpCreate || op == walOpRemove || op == walOpWrite) &&
			(op != walOpWrite || checkRange(offset, len(data)) == nil)
		s := NewStore()
		mustWrite(t, mustCreate(t, s, name), 0, []byte("before"))
		n, err := s.ReplayLog(framed)
		switch {
		case valid && (err != nil || n != 1):
			t.Fatalf("replay of a valid record = %d, %v", n, err)
		case !valid && !errors.Is(err, ErrCorruptLog):
			t.Fatalf("replay of an invalid record = %d, %v; want ErrCorruptLog", n, err)
		}
		if st, _ := s.get(name); valid && op == walOpWrite {
			if got := st.read(offset, int32(len(data)), nil); !bytes.Equal(got, data) || st.ver() != version {
				t.Fatalf("replayed write reads back %d bytes at version %d, want %d at %d", len(got), st.ver(), len(data), version)
			}
		}

		// The same bytes as a stream of their own, and cut short: arbitrary
		// input to the decoder. A torn or corrupt stream changes nothing.
		for _, stream := range [][]byte{data, framed[:len(framed)/2], append(framed[:len(framed):len(framed)], data...)} {
			s := NewStore()
			if n, err := s.ReplayLog(stream); err != nil {
				if !errors.Is(err, ErrCorruptLog) && !errors.Is(err, ErrTornLogTail) {
					t.Fatalf("replay error is untyped: %v", err)
				}
				if n != 0 || len(s.list()) != 0 {
					t.Fatalf("a rejected stream applied %d records and left %d files", n, len(s.list()))
				}
			}
		}
	})
}

func TestRecordSplitAcrossWritesReplays(t *testing.T) {
	// A record whose data goes to the log by reference reaches the file in
	// two writes. The framing is the same as for one, so a log cut anywhere
	// between or inside them is a torn tail — the records before it recover
	// — and the complete log replays to the store that wrote it.
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := mustCreate(t, s, "split")
	mustWrite(t, st, 0, []byte("small, in the batch buffer"))
	big := bytes.Repeat([]byte{0xC3}, 3*walRefBytes)
	mustWrite(t, st, 100, big)
	w.Kill()
	log, err := os.ReadFile(filepath.Join(dir, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	replayed := NewStore()
	if n, err := replayed.ReplayLog(log); err != nil || n != 3 || !sameStores(s, replayed) {
		t.Fatalf("replay = %d records, %v", n, err)
	}
	for cut := len(log) - len(big) - 20; cut < len(log); cut += 997 {
		torn := NewStore()
		if _, err := torn.ReplayLog(log[:cut]); !errors.Is(err, ErrTornLogTail) {
			t.Fatalf("log cut at %d of %d: replay = %v, want ErrTornLogTail", cut, len(log), err)
		}
	}
}
