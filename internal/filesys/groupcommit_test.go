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
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/scstats"
)

// Tests for natural group commit: no timer, the batch is whatever queued
// during the last fsync, and the dispatch stage in front of the WAL lets
// every blocked writer be a record in that queue.

// openStubbedWAL opens a WAL over a fresh store whose fsync is replaced by
// sync. The committer reads w.sync only after taking w.mu behind the first
// append, so setting it here, before any mutation, is ordered before it.
func openStubbedWAL(t *testing.T, sync func() error) (*Store, *WAL) {
	t.Helper()
	s := NewStore()
	w, err := OpenWAL(t.TempDir(), s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	w.sync = sync
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
	// shared fsyncs two at a time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const writers, rounds, ramp, pairs = 16, 50, 5, 30
	inflight := scstats.GaugeFor("netd.serve_inflight")
	// The committer is the only goroutine that moves wal.appends, and it
	// calls the stub before counting the batch it is about to sync: the
	// difference between two calls is the size of the batch between them.
	var committed []int64
	var peak atomic.Int64
	store, _ := openStubbedWAL(t, func() error {
		committed = append(committed, gWALAppends.Value())
		if n := inflight.Value(); n > peak.Load() {
			peak.Store(n) // only the committer stores
		}
		time.Sleep(time.Millisecond)
		return nil
	})

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
	files := make([]File, writers)
	for i := range files {
		if files[i], err = (FileSystem{Obj: root}).Create(fmt.Sprintf("w%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

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

func TestLoneDurableWriteDoesNotLinger(t *testing.T) {
	// One writer has nobody to share an fsync with, so waiting for company
	// only adds to its latency — and the 200 µs the committer used to sleep
	// came to over a millisecond under an idle runtime. With the fsync
	// stubbed out, what is left is the hand-off to the committer and back.
	s, _ := openStubbedWAL(t, func() error { return nil })
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
