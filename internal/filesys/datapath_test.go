package filesys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/buffer"
	"repro/internal/stubs"
)

// Tests for the single-copy data path: borrowed byte arguments, results
// appended in place, a store that grows and checkpoints without re-copying
// itself.

// allocatedBy returns the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestSequentialGrowthCopiesLinear(t *testing.T) {
	// Extending a file by appending writes used to allocate the whole
	// file anew per write — 64+128+…+1024 KiB ≈ 8.5 MiB for 1 MiB in 64
	// KiB appends — and then, with capacity doubling, 64+128+256+512+1024
	// KiB, half of it garbage the moment it was copied out of. A file of
	// extents allocates the sixteen it fills and a table to hold them.
	s := NewStore()
	st := mustCreate(t, s, "grow")
	chunk := bytes.Repeat([]byte{0xA5}, 64<<10)
	got := allocatedBy(func() {
		for off := int64(0); off < 1<<20; off += int64(len(chunk)) {
			mustWrite(t, st, off, chunk)
		}
	})
	if st.size() != 1<<20 {
		t.Fatalf("file is %d bytes", st.size())
	}
	if got >= 5<<18 {
		t.Fatalf("1 MiB written in 64 KiB appends allocated %d bytes, want < 1.25 MiB", got)
	}
}

func TestBadOffsetRejected(t *testing.T) {
	// A client-chosen offset used to size an allocation: 1<<40 was a fatal
	// makeslice panic, a negative one was acknowledged as (0, nil).
	s := NewStore()
	st := mustCreate(t, s, "f")
	mustWrite(t, st, 0, []byte("intact"))
	for _, off := range []int64{-1, -1 << 62, MaxFileSize, 1 << 40, 1<<63 - 1} {
		n, err := fileImpl{st}.Write(off, []byte("x"))
		if stubs.CodeOf(err) != CodeBadOffset || n != 0 {
			t.Fatalf("write at %d = %d, %v; want CodeBadOffset", off, n, err)
		}
	}
	if st.ver() != 1 || string(st.read(0, 100, nil)) != "intact" {
		t.Fatalf("a rejected write changed the file: v%d %q", st.ver(), st.read(0, 100, nil))
	}
	// The last byte below the ceiling is in range (checked without writing
	// a gigabyte).
	if err := checkRange(MaxFileSize-1, 1); err != nil {
		t.Fatal(err)
	}
	// Reads clamp to the file before anything is sized: the largest count
	// there is returns the file and allocates about the file.
	var data []byte
	if got := allocatedBy(func() { data, _ = fileImpl{st}.Read(0, 1<<31-1, nil) }); string(data) != "intact" || got > 4096 {
		t.Fatalf("read(0, 2^31-1) = %q, allocating %d bytes", data, got)
	}
}

func TestWALReplayRejectsOutOfRangeRecord(t *testing.T) {
	// A structurally valid, correctly summed record whose offset is out of
	// range is corruption, not an allocation request.
	for _, off := range []int64{-7, MaxFileSize, 1 << 40} {
		var log buffer.Buffer
		for _, rec := range []walRecord{
			{op: walOpCreate, name: "f"},
			{op: walOpWrite, name: "f", offset: off, version: 1, data: []byte("x")},
		} {
			var payload buffer.Buffer
			encodeRecord(&payload, &rec)
			log.WriteUint32(uint32(payload.Size()))
			log.WriteUint32(crc32.ChecksumIEEE(payload.Bytes()))
			log.WriteRaw(payload.Bytes())
		}
		s := NewStore()
		if _, err := s.ReplayLog(log.Bytes()); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("replay of a write at %d = %v, want ErrCorruptLog", off, err)
		}
		if len(s.list()) != 0 {
			t.Fatalf("offset %d: store mutated by a rejected log", off)
		}
	}
}

// dispatchWrite marshals file.write(off, data) into a pooled request the
// way a client stub does, runs it through the generated skeleton, and then
// recycles the request as netd's runCall does once the handler is back.
func dispatchWrite(t *testing.T, skel stubs.Skeleton, off int64, data []byte) {
	t.Helper()
	req := buffer.Get(len(data) + 32)
	req.WriteInt64(off)
	req.WriteBytes(data)
	reply := buffer.Get(16)
	if err := skel.Dispatch(FileWriteOp, req, reply); err != nil {
		t.Fatal(err)
	}
	if n, err := reply.ReadInt32(); err != nil || int(n) != len(data) {
		t.Fatalf("write returned %d, %v", n, err)
	}
	buffer.Put(req) // poisoned: the argument bytes read 0xDB from here on
	buffer.Put(reply)
}

func TestBorrowedBytesNotRetained(t *testing.T) {
	// The skeleton lends the store a slice of the request. After the call
	// the request is recycled (and, in this suite, overwritten with 0xDB),
	// so anything that kept the slice instead of copying it — the store,
	// the WAL record — shows poison: in a read, in a checkpoint, or in the
	// log replayed after a kill.
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := mustCreate(t, s, "lent")
	skel := NewFileSkeleton(nil, fileImpl{st})
	want := make([]byte, 0, 96<<10)
	for i := 0; len(want) < cap(want); i++ {
		chunk := bytes.Repeat([]byte{byte(i%200 + 1)}, 8<<10) // never 0xDB
		dispatchWrite(t, skel, int64(len(want)), chunk)
		want = append(want, chunk...)
	}

	req, reply := buffer.Get(16), buffer.Get(16)
	req.WriteInt64(0)
	req.WriteInt32(int32(len(want)))
	if err := skel.Dispatch(FileReadOp, req, reply); err != nil {
		t.Fatal(err)
	}
	if got, err := reply.ReadBytes(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (%v), poisoned at %d", len(got), err, bytes.IndexByte(got, 0xDB))
	}
	buffer.Put(req)
	buffer.Put(reply)

	var snap bytes.Buffer
	if err := s.SnapshotTo(&snap); err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexByte(snap.Bytes()[:snap.Len()-4], 0xDB); i >= 0 { // the CRC trailer may hold any byte
		t.Fatalf("checkpoint carries a poisoned byte at %d", i)
	}

	w.Kill() // no checkpoint: the log alone must reproduce the file
	s2 := NewStore()
	w2, err := OpenWAL(dir, s2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st2, err := s2.get("lent")
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.read(0, int32(len(want)+1), nil); !bytes.Equal(got, want) {
		t.Fatalf("replayed %d bytes, poisoned at %d", len(got), bytes.IndexByte(got, 0xDB))
	}
}

// encodeRecord is the record payload encoder frameRecord replaced — the whole
// payload, data included, copied into one buffer — kept here to pin the WAL
// byte stream.
func encodeRecord(buf *buffer.Buffer, rec *walRecord) {
	buf.WriteByte(rec.op)
	buf.WriteString(rec.name)
	if rec.op == walOpWrite {
		buf.WriteVarint(rec.offset)
		buf.WriteUint32(rec.version)
		buf.WriteBytes(rec.data)
	}
}

// flatFile is a file as the store held it before extents: one slice.
type flatFile struct {
	name    string
	version uint32
	data    []byte
}

// referenceSnapshot is the encoder SnapshotTo replaced — the whole store,
// each file one flat slice, marshalled into one store-sized buffer and
// summed at the end — kept here to pin the SFS2 byte stream.
func referenceSnapshot(files []flatFile) []byte {
	buf := buffer.New(1 << 10)
	buf.WriteUint32(snapshotMagic)
	buf.WriteUvarint(uint64(len(files)))
	for _, f := range files {
		buf.WriteString(f.name)
		buf.WriteUint32(f.version)
		buf.WriteBytes(f.data)
	}
	buf.WriteUint32(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

func TestSnapshotToMatchesReferenceEncoder(t *testing.T) {
	for _, sizes := range [][]int{nil, {0}, {5}, {0, 1, 127, 128, 300}, {snapshotChunk - 1, snapshotChunk, snapshotChunk + 1, 3*snapshotChunk + 17}} {
		s := NewStore()
		var files []flatFile
		for i, n := range sizes {
			f := flatFile{fmt.Sprintf("file-%02d", i), 1, bytes.Repeat([]byte{byte(i + 1)}, n)} // created in name order
			mustWrite(t, mustCreate(t, s, f.name), 0, f.data)
			files = append(files, f)
		}
		want := referenceSnapshot(files)
		if got := s.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("sizes %v: streamed snapshot (%d bytes) differs from the reference encoding (%d bytes)", sizes, len(got), len(want))
		}
		restored := NewStore()
		if err := restored.Restore(want); err != nil || !sameStores(s, restored) {
			t.Fatalf("sizes %v: restore = %v", sizes, err)
		}
	}
}

func TestCheckpointStreams(t *testing.T) {
	// A WAL compaction used to marshal the whole store into one store-sized
	// buffer every 4 MiB of log. Streamed, a checkpoint costs its write
	// buffer, whatever the store holds.
	s := NewStore()
	for i := 0; i < 32; i++ {
		st := mustCreate(t, s, fmt.Sprintf("file-%02d", i))
		mustWrite(t, st, 0, bytes.Repeat([]byte{byte(i)}, 1<<20))
	}
	path := filepath.Join(t.TempDir(), SnapshotFileName)
	if err := s.SaveFile(path); err != nil { // warm: the temp-file machinery's one-time costs
		t.Fatal(err)
	}
	var err error
	got := allocatedBy(func() { err = s.SaveFile(path) })
	if err != nil {
		t.Fatal(err)
	}
	if got >= 256<<10 {
		t.Fatalf("checkpointing a 32 MiB store allocated %d bytes, want < 256 KiB", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(data); err != nil || !sameStores(s, restored) {
		t.Fatalf("restore of the streamed checkpoint = %v", err)
	}
}

func TestCommitBatchEncodesInPlace(t *testing.T) {
	// One batch, several records: each framed [len][crc][payload] exactly
	// as replay expects, out of the committer's one reused buffer.
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, s, "a")
	for i := 0; i < 8; i++ {
		mustWrite(t, a, int64(i*3), []byte{byte(i), byte(i), byte(i)})
	}
	w.Kill()
	log, err := os.ReadFile(filepath.Join(dir, LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	recs := 0
	for off := 0; off < len(log); recs++ {
		n := int(binary.LittleEndian.Uint32(log[off:]))
		payload := log[off+walHeaderSize : off+walHeaderSize+n]
		if crc := binary.LittleEndian.Uint32(log[off+4:]); crc != crc32.ChecksumIEEE(payload) {
			t.Fatalf("record %d: stored CRC %#x over a payload summing to %#x", recs, crc, crc32.ChecksumIEEE(payload))
		}
		off += walHeaderSize + n
	}
	if recs != 9 {
		t.Fatalf("log holds %d records, want 9", recs)
	}
	replayed := NewStore()
	if n, err := replayed.ReplayLog(log); err != nil || n != 9 || !sameStores(s, replayed) {
		t.Fatalf("replay = %d records, %v", n, err)
	}
}
