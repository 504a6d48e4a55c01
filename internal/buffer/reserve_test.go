package buffer

import (
	"bytes"
	"errors"
	"testing"
)

// Tests for ReserveBytes/CommitBytes: a byte sequence produced in place in
// the buffer's own tail, behind a fixed-width prefix patched afterwards.

// produce runs one reserve/append/commit cycle the way a generated
// skeleton does: on an error the producer's bytes are never committed.
func produce(b *Buffer, fn func(dst []byte) ([]byte, error)) error {
	p, err := fn(b.ReserveBytes())
	if err != nil {
		return err
	}
	b.CommitBytes(p)
	return nil
}

func TestReserveCommitInPlace(t *testing.T) {
	b := New(256)
	b.WriteUint32(7)
	payload := bytes.Repeat([]byte("ab"), 50)
	var inPlace bool
	_ = produce(b, func(dst []byte) ([]byte, error) {
		out := append(dst, payload...)
		inPlace = &out[0] == &b.Bytes()[:cap(b.Bytes())][4+bytesPrefixLen]
		return out, nil
	})
	if !inPlace {
		t.Fatal("the producer was not handed the buffer's own tail")
	}
	b.WriteString("after")
	if v, _ := b.ReadUint32(); v != 7 {
		t.Fatalf("leading field = %d", v)
	}
	got, err := b.ReadBytes()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadBytes = %q, %v", got, err)
	}
	if &got[0] != &b.Bytes()[4+bytesPrefixLen] {
		t.Fatal("committed bytes were moved: the adopted tail must stay where the producer wrote it")
	}
	if s, err := b.ReadString(); err != nil || s != "after" || b.Len() != 0 {
		t.Fatalf("trailing field = %q, %v, %d bytes left", s, err, b.Len())
	}
}

func TestReserveCommitNothing(t *testing.T) {
	b := New(0) // no capacity at all: the prefix itself has to make room
	_ = produce(b, func(dst []byte) ([]byte, error) { return dst, nil })
	if b.Size() != bytesPrefixLen {
		t.Fatalf("an empty sequence is %d bytes, want the %d-byte prefix", b.Size(), bytesPrefixLen)
	}
	got, err := b.ReadBytes()
	if err != nil || len(got) != 0 || b.Len() != 0 {
		t.Fatalf("ReadBytes = %v, %v, %d left", got, err, b.Len())
	}
	// A producer with nothing to say may also return nil.
	b.Reset()
	_ = produce(b, func([]byte) ([]byte, error) { return nil, nil })
	if got, err := b.ReadBytes(); err != nil || len(got) != 0 || b.Len() != 0 {
		t.Fatalf("nil result: ReadBytes = %v, %v, %d left", got, err, b.Len())
	}
}

func TestReserveCommitPastCapacity(t *testing.T) {
	// The producer appends more than the tail holds, so append moves it to
	// an array of its own; Commit copies that in (growing the buffer) and
	// the stream reads the same.
	b := New(16)
	b.WriteByte(1)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	_ = produce(b, func(dst []byte) ([]byte, error) {
		if cap(dst) >= len(payload) {
			t.Fatalf("tail capacity %d: the test wants an overflow", cap(dst))
		}
		return append(dst, payload...), nil
	})
	b.WriteUint32(99)
	_, _ = b.ReadByte()
	got, err := b.ReadBytes()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadBytes returned %d bytes, %v", len(got), err)
	}
	if v, err := b.ReadUint32(); err != nil || v != 99 {
		t.Fatalf("trailing field = %d, %v", v, err)
	}
}

func TestReserveCommitForeignSlice(t *testing.T) {
	// A producer may ignore dst and return a slice of its own.
	b := New(64)
	own := []byte("somewhere else entirely")
	_ = produce(b, func([]byte) ([]byte, error) { return own, nil })
	got, err := b.ReadBytes()
	if err != nil || !bytes.Equal(got, own) || &got[0] == &own[0] {
		t.Fatalf("ReadBytes = %q, %v (must be a copy inside the buffer)", got, err)
	}
}

func TestReserveErrorLeavesNoPrefix(t *testing.T) {
	// A failing producer — it may have scribbled on the tail first —
	// leaves the stream as it was: no prefix, nothing to roll back, and a
	// Truncate to an earlier mark (what ServeCallInfo does on a remote
	// exception) finds exactly the bytes written before it.
	b := New(64)
	mark := b.Mark()
	b.WriteByte(0)
	boom := errors.New("boom")
	err := produce(b, func(dst []byte) ([]byte, error) {
		_ = append(dst, "partial result"...)
		return nil, boom
	})
	if err != boom || b.Size() != 1 {
		t.Fatalf("after a failed producer: err %v, %d bytes in the stream, want 1", err, b.Size())
	}
	b.Truncate(mark)
	b.WriteByte(1)
	b.WriteString("exception")
	if !bytes.Equal(b.Bytes(), append([]byte{1, 9}, "exception"...)) {
		t.Fatalf("stream after rollback = %x", b.Bytes())
	}
}

func TestReserveCommitInWindow(t *testing.T) {
	// A narrowed buffer's capacity is clipped to its window, so there is
	// no tail to lend: the sequence lands in a fresh array and what
	// follows the window in the original storage is left alone.
	b := New(64)
	b.WriteRaw([]byte("head|window|tail"))
	whole := b.Bytes()
	b.Narrow(5, 6)
	_ = produce(b, func(dst []byte) ([]byte, error) { return append(dst, "xyz"...), nil })
	if string(whole) != "head|window|tail" {
		t.Fatalf("bytes behind the window were overwritten: %q", whole)
	}
	_, _ = b.ReadRaw(6)
	if got, err := b.ReadBytes(); err != nil || string(got) != "xyz" {
		t.Fatalf("ReadBytes = %q, %v", got, err)
	}
}

func TestPaddedPrefixDecodes(t *testing.T) {
	// The fixed-width prefix is a uvarint with redundant continuation
	// bytes; every reader of a length goes through ReadUvarint, which must
	// take it for the same number as the minimal form.
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 20} {
		b := New(n + 16)
		_ = produce(b, func(dst []byte) ([]byte, error) { return dst[:n], nil })
		ref := New(n + 16)
		ref.WriteBytes(make([]byte, n))
		if b.Size() != n+bytesPrefixLen {
			t.Fatalf("len %d: sequence takes %d bytes", n, b.Size())
		}
		v, err := FromParts(b.Bytes(), nil).ReadUvarint()
		w, _ := FromParts(ref.Bytes(), nil).ReadUvarint()
		if err != nil || v != uint64(n) || v != w {
			t.Fatalf("len %d: padded prefix decodes to %d (%v), minimal to %d", n, v, err, w)
		}
	}
}

func TestReserveCommitAllocs(t *testing.T) {
	// With the capacity there — a pooled reply buffer keeps what it grew
	// to — reserving, appending and committing allocate nothing.
	payload := make([]byte, 64<<10)
	b := New(80 << 10)
	n := testing.AllocsPerRun(200, func() {
		b.Reset()
		b.WriteByte(0)
		b.CommitBytes(append(b.ReserveBytes(), payload...))
	})
	if n > 0 {
		t.Fatalf("reserve/append/commit within capacity allocates %.1f objects, want 0", n)
	}
}
