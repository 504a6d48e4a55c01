package filesys

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"
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
