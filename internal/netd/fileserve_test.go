package netd

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/filesys"
	"repro/internal/stubs"
)

// TestRemoteBadOffsetWriteRejected: one remote write with a hostile offset
// used to take the whole server down (write(1<<40, x) sized a makeslice
// from the client's number; nothing on the serve path recovers) or, for a
// negative offset, be acknowledged as written. Both are typed remote
// exceptions now, over TCP and over the same-machine tier's unix sockets,
// and the server keeps serving the same file afterwards.
func TestRemoteBadOffsetWriteRejected(t *testing.T) {
	for _, tier := range []string{"tcp", "same-machine"} {
		t.Run(tier, func(t *testing.T) {
			var a, b *machine
			if tier == "tcp" {
				a, b = newMachine(t, "A", filesys.RegisterAll), newMachine(t, "B", filesys.RegisterAll)
			} else {
				a, b = newSameMachine(t, "A", Config{}, filesys.RegisterAll), newSameMachine(t, "B", Config{}, filesys.RegisterAll)
			}
			a.srv.PublishRoot("fs", filesys.NewService(a.env).Object())
			root, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "fs", filesys.FileSystemMT)
			if err != nil {
				t.Fatal(err)
			}
			f, err := filesys.FileSystem{Obj: root}.Create("victim")
			if err != nil {
				t.Fatal(err)
			}
			payload := bigPayload(64 << 10)
			if n, err := f.Write(0, payload); err != nil || int(n) != len(payload) {
				t.Fatalf("write = %d, %v", n, err)
			}
			for _, off := range []int64{-1, filesys.MaxFileSize, 1 << 40} {
				n, err := f.Write(off, payload)
				if stubs.CodeOf(err) != filesys.CodeBadOffset || n != 0 {
					t.Fatalf("write at %d = %d, %v; want the CodeBadOffset remote exception", off, n, err)
				}
			}
			if got, err := f.Read(0, 1<<31-1); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read after the rejected writes: %d bytes, %v", len(got), err)
			}
			if v, err := f.Version(); err != nil || v != 1 {
				t.Fatalf("version after the rejected writes = %d, %v; want 1", v, err)
			}
		})
	}
}

// TestSparseWriteAllocatesOneExtent: one remote write just under the file
// ceiling used to size a gibibyte allocation from the client's offset — in
// range, so accepted, and paid for in full. A file is a table of extents
// now: the write costs the extent it lands in and the table's slots, the
// gibibyte before it is a hole that reads as zeros, and the server goes on
// serving — over TCP and the same-machine tier's unix sockets alike.
func TestSparseWriteAllocatesOneExtent(t *testing.T) {
	for _, tier := range []string{"tcp", "same-machine"} {
		t.Run(tier, func(t *testing.T) {
			var a, b *machine
			if tier == "tcp" {
				a, b = newMachine(t, "A", filesys.RegisterAll), newMachine(t, "B", filesys.RegisterAll)
			} else {
				a, b = newSameMachine(t, "A", Config{}, filesys.RegisterAll), newSameMachine(t, "B", Config{}, filesys.RegisterAll)
			}
			a.srv.PublishRoot("fs", filesys.NewService(a.env).Object())
			root, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "fs", filesys.FileSystemMT)
			if err != nil {
				t.Fatal(err)
			}
			f, err := filesys.FileSystem{Obj: root}.Create("sparse")
			if err != nil {
				t.Fatal(err)
			}
			const block = 64 << 10
			payload := bigPayload(block)
			// Once at the front, so every pooled buffer on the way has grown to
			// the payload before the measured write.
			if n, err := f.Write(0, payload); err != nil || int(n) != block {
				t.Fatalf("write = %d, %v", n, err)
			}
			const far = filesys.MaxFileSize - block
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, err := f.Write(far, payload)
			runtime.ReadMemStats(&after)
			if err != nil || int(n) != block {
				t.Fatalf("write at %d = %d, %v", int64(far), n, err)
			}
			// (Under the race detector sync.Pool drops puts, and the frames on
			// the way are allocated afresh.)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 && !raceEnabled {
				t.Fatalf("a 64 KiB write at offset %d allocated %d bytes, want < 1 MiB", int64(far), got)
			}
			if size, err := f.Size(); err != nil || size != filesys.MaxFileSize {
				t.Fatalf("size = %d, %v; want %d", size, err, int64(filesys.MaxFileSize))
			}
			if got, err := f.Read(far-block, 2*block); err != nil ||
				!bytes.Equal(got[:block], make([]byte, block)) || !bytes.Equal(got[block:], payload) {
				t.Fatalf("read across the hole's end: %d bytes, %v", len(got), err)
			}
			if got, err := f.Read(block, block); err != nil || !bytes.Equal(got, make([]byte, block)) {
				t.Fatalf("read at the hole's start: %d bytes, %v", len(got), err)
			}
			if got, err := f.Read(0, block); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read of the first extent: %d bytes, %v", len(got), err)
			}
		})
	}
}
