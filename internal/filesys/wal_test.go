package filesys

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// mustCreate / mustWrite are store-mutation helpers that fail the test on
// the first error (with a WAL attached every mutation can fail at commit).
func mustCreate(t *testing.T, s *Store, name string) *fileState {
	t.Helper()
	st, err := s.create(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustWrite(t *testing.T, st *fileState, off int64, data []byte) {
	t.Helper()
	if _, err := st.write(off, data); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecoversAcrossKill is the core durability contract: every
// mutation acknowledged before a kill is recovered by reopening the same
// directory, and a removed file stays removed.
func TestWALRecoversAcrossKill(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, s, "a")
	mustWrite(t, a, 0, []byte("hello"))
	mustWrite(t, a, 5, []byte(" wal"))
	b := mustCreate(t, s, "doomed")
	mustWrite(t, b, 0, []byte("gone"))
	if err := s.remove("doomed"); err != nil {
		t.Fatal(err)
	}
	w.Kill() // no flush, no compaction: recovery must come from the log

	s2 := NewStore()
	w2, err := OpenWAL(dir, s2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	ra, err := s2.get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(ra.read(0, 100, nil)); got != "hello wal" {
		t.Fatalf("recovered a = %q", got)
	}
	if ra.ver() != 2 {
		t.Fatalf("recovered version = %d, want 2", ra.ver())
	}
	if _, err := s2.get("doomed"); err == nil {
		t.Fatal("removed file came back")
	}
}

// TestWALCloseCompacts: a graceful Close checkpoints into the snapshot
// and truncates the log, and a reopen recovers from the snapshot alone.
func TestWALCloseCompacts(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, mustCreate(t, s, "x"), 0, []byte("checkpointed"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, LogFileName)); err != nil || fi.Size() != 0 {
		t.Fatalf("log after Close: %v, %v (want empty)", fi, err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFileName)); err != nil {
		t.Fatalf("no snapshot after Close: %v", err)
	}

	s2 := NewStore()
	w2, err := OpenWAL(dir, s2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st, err := s2.get("x")
	if err != nil || string(st.read(0, 100, nil)) != "checkpointed" {
		t.Fatalf("recovered = %v, %v", st, err)
	}
}

// TestWALClosedMutationsFail: mutations racing shutdown fail with
// ErrWALClosed and were never acknowledged.
func TestWALClosedMutationsFail(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.create("late"); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("create after Close = %v, want ErrWALClosed", err)
	}
}

// TestWALCompactionBounds: a tiny compaction threshold keeps the log
// near-empty under sustained writes, and recovery still sees everything.
func TestWALCompactionBounds(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := mustCreate(t, s, "churn")
	blob := bytes.Repeat([]byte("z"), 512)
	for i := 0; i < 40; i++ {
		mustWrite(t, f, int64(i), blob)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	w2, err := OpenWAL(dir, s2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st, err := s2.get("churn")
	if err != nil {
		t.Fatal(err)
	}
	if st.size() != int64(39+len(blob)) || st.ver() != 40 {
		t.Fatalf("recovered churn: %d bytes v%d", st.size(), st.ver())
	}
}

// TestWALConcurrentWriters drives parallel mutators through the group
// committer (the -race target for the queue/batch machinery) and then
// verifies recovery of every acknowledged write.
func TestWALConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		f := mustCreate(t, s, fmt.Sprintf("f%d", g))
		wg.Add(1)
		go func(g int, f *fileState) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := f.write(0, []byte(fmt.Sprintf("%04d", i))); err != nil {
					errs[g] = err
					return
				}
			}
		}(g, f)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	w.Kill()

	s2 := NewStore()
	w2, err := OpenWAL(dir, s2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for g := 0; g < writers; g++ {
		st, err := s2.get(fmt.Sprintf("f%d", g))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(st.read(0, 4, nil)); got != fmt.Sprintf("%04d", rounds-1) {
			t.Fatalf("f%d recovered %q", g, got)
		}
	}
}

// TestWALTornTailTruncated: a log ending in a half-written record (a
// crash mid-batch) recovers the valid prefix, truncates the tail, and the
// strict replay path reports the tear as ErrTornLogTail.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, mustCreate(t, s, "keep"), 0, []byte("survives"))
	w.Kill()

	logPath := filepath.Join(dir, LogFileName)
	good, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn batch: a plausible header promising a payload the crash cut
	// off, plus a few stray bytes of it.
	torn := append(append([]byte(nil), good...), 0, 0, 0, 64, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	strict := NewStore()
	if _, err := strict.ReplayLog(torn); !errors.Is(err, ErrTornLogTail) {
		t.Fatalf("strict replay of torn log = %v, want ErrTornLogTail", err)
	}
	if len(strict.list()) != 0 {
		t.Fatal("strict replay of torn log mutated the store")
	}

	s2 := NewStore()
	w2, err := OpenWAL(dir, s2, WALOptions{})
	if err != nil {
		t.Fatalf("OpenWAL did not tolerate the torn tail: %v", err)
	}
	defer w2.Close()
	st, err := s2.get("keep")
	if err != nil || string(st.read(0, 8, nil)) != "survives" {
		t.Fatalf("prefix not recovered: %v, %v", st, err)
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("torn tail not truncated: %v, %v (want %d bytes)", fi, err, len(good))
	}
}

// walStream builds a committed log byte stream plus the store state it
// produces, for the corruption property tests.
func walStream(t *testing.T) ([]byte, *Store) {
	t.Helper()
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, s, "alpha")
	mustWrite(t, a, 0, []byte("the quick brown fox"))
	b := mustCreate(t, s, "beta")
	mustWrite(t, b, 4, []byte{0xff, 0x00, 0x7f})
	if err := s.remove("beta"); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, a, 19, []byte(" jumps"))
	w.Kill()
	data, err := os.ReadFile(filepath.Join(dir, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty log stream")
	}
	return data, s
}

func sameStores(a, b *Store) bool {
	la, lb := a.list(), b.list()
	if len(la) != len(lb) {
		return false
	}
	for i, name := range la {
		if lb[i] != name {
			return false
		}
		sa, _ := a.get(name)
		sb, _ := b.get(name)
		if sa.ver() != sb.ver() || !bytes.Equal(sa.read(0, 1<<20, nil), sb.read(0, 1<<20, nil)) {
			return false
		}
	}
	return true
}

// TestWALReplayByteFlips is the log-corruption property: flipping any
// single byte of a valid stream makes strict replay fail — never panic —
// with the target store untouched.
func TestWALReplayByteFlips(t *testing.T) {
	data, _ := walStream(t)
	for i := range data {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0xff
		fresh := NewStore()
		n, err := fresh.ReplayLog(flipped)
		if err == nil {
			t.Fatalf("byte %d flipped: replay accepted %d records", i, n)
		}
		if !errors.Is(err, ErrCorruptLog) && !errors.Is(err, ErrTornLogTail) {
			t.Fatalf("byte %d flipped: untyped error %v", i, err)
		}
		if len(fresh.list()) != 0 {
			t.Fatalf("byte %d flipped: store mutated despite error", i)
		}
	}
}

// TestWALReplayIdempotent: replaying a log twice — or over a snapshot
// that already contains its effects, the compaction overlap window —
// converges to the same state as one clean replay.
func TestWALReplayIdempotent(t *testing.T) {
	data, want := walStream(t)

	once := NewStore()
	if _, err := once.ReplayLog(data); err != nil {
		t.Fatal(err)
	}
	if !sameStores(once, want) {
		t.Fatal("single replay diverged from the live store")
	}

	twice := NewStore()
	for i := 0; i < 2; i++ {
		if _, err := twice.ReplayLog(data); err != nil {
			t.Fatal(err)
		}
	}
	if !sameStores(twice, once) {
		t.Fatal("double replay diverged")
	}

	overlap := NewStore()
	if err := overlap.Restore(want.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := overlap.ReplayLog(data); err != nil {
		t.Fatal(err)
	}
	if !sameStores(overlap, once) {
		t.Fatal("snapshot+log overlap replay diverged")
	}
}

// TestSnapshotByteFlips is the snapshot-corruption property: flipping any
// single byte of a serialized snapshot makes Restore fail with
// ErrCorruptSnapshot and leave the store exactly as it was.
func TestSnapshotByteFlips(t *testing.T) {
	s := NewStore()
	mustWrite(t, mustCreate(t, s, "guard"), 0, []byte("snapshot property"))
	mustWrite(t, mustCreate(t, s, "other"), 3, []byte{9, 8, 7})
	snap := s.Snapshot()

	for i := range snap {
		flipped := append([]byte(nil), snap...)
		flipped[i] ^= 0xff
		target := NewStore()
		mustWrite(t, mustCreate(t, target, "sentinel"), 0, []byte("untouched"))
		if err := target.Restore(flipped); err == nil {
			t.Fatalf("byte %d flipped: corrupt snapshot accepted", i)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("byte %d flipped: untyped error %v", i, err)
		}
		st, err := target.get("sentinel")
		if err != nil || string(st.read(0, 9, nil)) != "untouched" {
			t.Fatalf("byte %d flipped: store mutated on rejected restore", i)
		}
	}
}

// TestSaveFileAtomicOnError: a save into an unwritable location fails
// without disturbing the existing snapshot file.
func TestSaveFileAtomicOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.sfs")
	s := NewStore()
	mustWrite(t, mustCreate(t, s, "v1"), 0, []byte("first"))
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.SaveFile(filepath.Join(dir, "no-such-dir", "snap.sfs")); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("existing snapshot disturbed by failed save: %v", err)
	}
}
