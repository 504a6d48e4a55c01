package filesys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	a, err := s.create("a")
	if err != nil {
		t.Fatal(err)
	}
	a.write(0, []byte("alpha"))
	a.write(5, []byte("!"))
	b, err := s.create("b/deep")
	if err != nil {
		t.Fatal(err)
	}
	b.write(2, []byte{0, 1, 2})

	restored := NewStore()
	if err := restored.Restore(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ra, err := restored.get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra.read(0, 100, nil), []byte("alpha!")) || ra.ver() != 2 {
		t.Fatalf("a = %q v%d", ra.read(0, 100, nil), ra.ver())
	}
	rb, err := restored.get("b/deep")
	if err != nil {
		t.Fatal(err)
	}
	if rb.size() != 5 || rb.ver() != 1 {
		t.Fatalf("b = %d bytes v%d", rb.size(), rb.ver())
	}
	if got := restored.list(); len(got) != 2 {
		t.Fatalf("list = %v", got)
	}
}

func TestSnapshotQuick(t *testing.T) {
	f := func(names []string, payloads [][]byte) bool {
		s := NewStore()
		want := make(map[string][]byte)
		for i, name := range names {
			if name == "" {
				continue
			}
			st, err := s.create(name)
			if err != nil {
				continue // duplicate quick-generated name
			}
			var p []byte
			if i < len(payloads) {
				p = payloads[i]
			}
			st.write(0, p)
			want[name] = append([]byte(nil), p...)
		}
		restored := NewStore()
		if err := restored.Restore(s.Snapshot()); err != nil {
			return false
		}
		for name, data := range want {
			st, err := restored.get(name)
			if err != nil {
				return false
			}
			if !bytes.Equal(st.read(0, int32(len(data)+1), nil), data) {
				return false
			}
		}
		return len(restored.list()) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.sfs")

	s := NewStore()
	st, err := s.create("persist")
	if err != nil {
		t.Fatal(err)
	}
	st.write(0, []byte("durable"))
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	loaded := NewStore()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := loaded.get("persist")
	if err != nil || string(got.read(0, 7, nil)) != "durable" {
		t.Fatalf("loaded = %v, %v", got, err)
	}

	// Missing file: clean first boot.
	fresh := NewStore()
	if err := fresh.LoadFile(filepath.Join(dir, "missing.sfs")); err != nil {
		t.Fatal(err)
	}
	if len(fresh.list()) != 0 {
		t.Fatal("missing snapshot produced files")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	s := NewStore()
	if err := s.Restore([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := s.Restore(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

// snapEntry is one file of a hand-built snapshot.
type snapEntry struct {
	name    string
	version uint32
	data    []byte
}

// encodeSnapshot frames files in the snapshot format, in the order given
// and without the checks SnapshotTo's store implies, so a test can build
// well-formed streams a store would never write.
func encodeSnapshot(files ...snapEntry) []byte {
	var b buffer.Buffer
	b.WriteUint32(snapshotMagic)
	b.WriteUvarint(uint64(len(files)))
	for _, f := range files {
		_, _ = b.WriteString(f.name)
		b.WriteUint32(f.version)
		b.WriteBytes(f.data)
	}
	return binary.LittleEndian.AppendUint32(b.Bytes(), crc32.ChecksumIEEE(b.Bytes()))
}

// A CRC-valid snapshot naming one file twice is refused: the later entry
// must not silently replace the earlier one.
func TestRestoreRejectsDuplicateNames(t *testing.T) {
	good := encodeSnapshot(snapEntry{"a", 1, []byte("first")}, snapEntry{"b", 2, []byte("second")})
	s := NewStore()
	if err := s.Restore(good); err != nil {
		t.Fatalf("well-formed snapshot refused: %v", err)
	}
	before := s.Snapshot()
	dup := encodeSnapshot(snapEntry{"a", 1, []byte("first")}, snapEntry{"a", 2, []byte("second")})
	if err := s.Restore(dup); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Restore of a snapshot naming \"a\" twice = %v, want ErrCorruptSnapshot", err)
	}
	if !bytes.Equal(s.Snapshot(), before) {
		t.Fatal("rejected restore changed the store")
	}
}

// FuzzSnapshot: Restore of arbitrary bytes never panics; what it refuses
// it refuses with ErrCorruptSnapshot and the store byte-identical; what it
// accepts checkpoints and restores again to the same store.
func FuzzSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(snapEntry{"notes", 3, []byte("hello")}, snapEntry{"zeros", 0, make([]byte, 100)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		mustWrite(t, mustCreate(t, s, "sentinel"), 2, []byte("untouched"))
		before := s.Snapshot()
		if err := s.Restore(data); err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("untyped error %v", err)
			}
			if !bytes.Equal(s.Snapshot(), before) {
				t.Fatal("rejected restore changed the store")
			}
			return
		}
		again := NewStore()
		if err := again.Restore(s.Snapshot()); err != nil || !sameStores(s, again) {
			t.Fatalf("accepted snapshot does not round-trip: %v", err)
		}
	})
}
