package filesys

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Tests for the extent store: a file is a table of fixed-size extents,
// holes unallocated, and everything observable about it is what a flat
// byte slice would show.

// flatWrite is fileState.apply on the flat model: grow with zeros, copy.
func (f *flatFile) flatWrite(off int64, data []byte) {
	if end := int(off) + len(data); end > len(f.data) {
		f.data = append(f.data, make([]byte, end-len(f.data))...)
	}
	copy(f.data[off:], data)
	f.version++
}

// flatRead is fileState.read on the flat model.
func (f *flatFile) flatRead(off int64, count int32) []byte {
	if off < 0 || off >= int64(len(f.data)) || count <= 0 {
		return nil
	}
	return f.data[off:min(off+int64(count), int64(len(f.data)))]
}

func TestExtentsMatchFlatModel(t *testing.T) {
	// Random writes — appends, overwrites, writes far past the end that
	// leave holes, empty writes that only extend — and random reads, over a
	// file that stays inside its first extent, one that crosses into a
	// second, and one spread over many. After every step the extent file
	// reads as the flat one; at the end its checkpoint is byte for byte the
	// reference encoding of the flat files, and restoring that checkpoint
	// gives the same reads again.
	reach := []int64{4 << 10, extentSize + extentSize/2, 9 * extentSize}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		flat := make([]flatFile, len(reach))
		files := make([]*fileState, len(reach))
		for i := range flat {
			flat[i].name = fmt.Sprintf("file-%d", i) // created in name order
			files[i] = mustCreate(t, s, flat[i].name)
		}
		check := func(step int, i int, off int64, count int32) {
			t.Helper()
			if got, want := files[i].read(off, count, nil), flat[i].flatRead(off, count); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: %s read(%d, %d) = %d bytes, flat model has %d (first difference at %d)",
					seed, step, flat[i].name, off, count, len(got), len(want), firstDiff(got, want))
			}
		}
		for step := 0; step < 300; step++ {
			i := rng.Intn(len(reach))
			off := rng.Int63n(reach[i])
			if rng.Intn(3) == 0 {
				off = int64(len(flat[i].data)) // an append
			}
			switch rng.Intn(4) {
			case 0:
				check(step, i, off-rng.Int63n(extentSize), int32(rng.Intn(3*extentSize)))
			default:
				var n int
				switch rng.Intn(4) {
				case 0: // empty: only the length may move
				case 1:
					n = 1 + rng.Intn(3*extentSize)
				default:
					n = 1 + rng.Intn(2<<10)
				}
				n = int(min(int64(n), reach[i]-off))
				data := make([]byte, n)
				rng.Read(data)
				mustWrite(t, files[i], off, data)
				flat[i].flatWrite(off, data)
				if files[i].size() != int64(len(flat[i].data)) || files[i].ver() != flat[i].version {
					t.Fatalf("seed %d step %d: %s is %d bytes at version %d, flat model %d at %d",
						seed, step, flat[i].name, files[i].size(), files[i].ver(), len(flat[i].data), flat[i].version)
				}
				check(step, i, off-1, int32(n+2))
			}
		}
		if got := len(files[0].extents); got > 1 || len(files[0].extents[0]) > 2*len(flat[0].data) {
			t.Fatalf("seed %d: a %d-byte file holds %d extents, the first of %d bytes", seed, len(flat[0].data), got, len(files[0].extents[0]))
		}
		snap := s.Snapshot()
		if want := referenceSnapshot(flat); !bytes.Equal(snap, want) {
			t.Fatalf("seed %d: checkpoint (%d bytes) differs from the reference encoding of the flat files (%d bytes) at %d",
				seed, len(snap), len(want), firstDiff(snap, want))
		}
		restored := NewStore()
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		for i := range flat {
			st, err := restored.get(flat[i].name)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = st
			check(-1, i, 0, int32(len(flat[i].data)+1))
			if st.ver() != flat[i].version {
				t.Fatalf("seed %d: restored %s at version %d, want %d", seed, flat[i].name, st.ver(), flat[i].version)
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestHolesAreNotAllocated(t *testing.T) {
	// A write far past the end allocates the extents it touches and a table
	// slot for each one it skips, in memory and again after a restart: a
	// restored extent that holds only zeros goes back to being a hole.
	s := NewStore()
	st := mustCreate(t, s, "sparse")
	payload := bytes.Repeat([]byte{0xEE}, 1<<10)
	const far = 40 * extentSize
	if got := allocatedBy(func() { mustWrite(t, st, far, payload) }); got > 2*extentSize {
		t.Fatalf("1 KiB written at offset %d allocated %d bytes, want about one extent", far, got)
	}
	if st.size() != far+int64(len(payload)) {
		t.Fatalf("size = %d", st.size())
	}
	if got := st.read(far-100, 200, nil); !bytes.Equal(got[:100], make([]byte, 100)) || !bytes.Equal(got[100:], payload[:100]) {
		t.Fatal("read across the hole's end is not zeros then data")
	}
	restored := NewStore()
	if err := restored.Restore(s.Snapshot()); err != nil || !sameStores(s, restored) {
		t.Fatalf("restore = %v", err)
	}
	rst, _ := restored.get("sparse")
	held := 0
	for _, ext := range rst.extents {
		held += len(ext)
	}
	if held != extentSize {
		t.Fatalf("the restored file holds %d bytes of extents for 1 KiB of data, want one extent", held)
	}
}

func TestSparseFileUnderWAL(t *testing.T) {
	// A hole costs no memory, but the SFS2 snapshot has no way to say
	// "hole": a checkpoint writes it out as zeros. So the checkpoint
	// threshold follows the file's length, holes counted — otherwise one
	// remote write far past the end would have the committer rewrite the
	// whole length for every CompactBytes logged — and the price is a log
	// that may grow to that length before it is cut. This is the ceiling's
	// shape at 1/64 scale: a 16 MiB hole where a hostile write could leave
	// one of a gibibyte. The log holds back until it has matched the hole,
	// the one checkpoint streams its zeros without holding them, and a
	// restart from the long log costs the data, not the length.
	const hole, compactBytes, chunk = 16 << 20, 64 << 10, 64 << 10
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{CompactBytes: compactBytes})
	if err != nil {
		t.Fatal(err)
	}
	sparse := mustCreate(t, s, "sparse")
	mustWrite(t, sparse, hole, []byte{0xEE})
	if got := s.bytesHeld(); got != hole+1 {
		t.Fatalf("bytesHeld = %d, want the file's length %d", got, hole+1)
	}
	dense := mustCreate(t, s, "dense")
	block := bytes.Repeat([]byte{0x42}, chunk)
	compactions0 := gWALCompactions.Value()
	logged := 0
	for ; logged < hole-2*chunk; logged += chunk {
		mustWrite(t, dense, 0, block)
	}
	if got := gWALCompactions.Value() - compactions0; got != 0 {
		t.Fatalf("%d checkpoints while the log (%d bytes) was shorter than the store it would write (%d)", got, logged, hole)
	}
	// The writes that take the log past the store. The checkpoint runs on
	// the committer after the batch that crossed the line is acknowledged
	// and before the next is taken, so the write after that one waits it
	// out: the stretch as a whole contains it.
	if got := allocatedBy(func() {
		for ; logged < hole+4*chunk; logged += chunk {
			mustWrite(t, dense, 0, block)
		}
	}); got >= 1<<20 {
		t.Fatalf("checkpointing a %d byte hole allocated %d bytes, want < 1 MiB", hole, got)
	}
	if got := gWALCompactions.Value() - compactions0; got != 1 {
		t.Fatalf("%d checkpoints after %d bytes of log over a %d byte store, want 1", got, logged, hole)
	}
	// Restart from the snapshot of zeros plus a log nearly as long again.
	for ; logged < 2*hole-4*chunk; logged += chunk {
		mustWrite(t, dense, 0, block)
	}
	w.Kill()
	reopened := NewStore()
	var w2 *WAL
	got := allocatedBy(func() { w2, err = OpenWAL(dir, reopened, WALOptions{CompactBytes: compactBytes}) })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got >= 2<<20 {
		t.Fatalf("reopening a %d byte hole and a %d byte log allocated %d bytes, want < 2 MiB", hole, hole, got)
	}
	if !sameStores(s, reopened) {
		t.Fatal("the reopened store differs from the one that was killed")
	}
}

func TestRestartStreams(t *testing.T) {
	// A restart used to read the whole snapshot and the whole log into
	// memory and then copy every file out of the snapshot: a peak of twice
	// the store and more. Streamed, reopening a store costs the store.
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		st := mustCreate(t, s, fmt.Sprintf("file-%02d", i))
		mustWrite(t, st, 0, bytes.Repeat([]byte{byte(i + 1)}, 1<<20))
	}
	if err := w.Close(); err != nil { // checkpoints: the restart below reads a 32 MiB snapshot
		t.Fatal(err)
	}
	reopened := NewStore()
	var w2 *WAL
	got := allocatedBy(func() { w2, err = OpenWAL(dir, reopened, WALOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got >= 40<<20 {
		t.Fatalf("reopening a 32 MiB store allocated %d bytes, want < 40 MiB", got)
	}
	if !sameStores(s, reopened) {
		t.Fatal("the reopened store differs from the one that was closed")
	}
}
