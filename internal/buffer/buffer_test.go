package buffer

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var b Buffer
	b.WriteUint32(7)
	v, err := b.ReadUint32()
	if err != nil || v != 7 {
		t.Fatalf("ReadUint32 = %d, %v; want 7, nil", v, err)
	}
}

func TestRoundTripPrimitives(t *testing.T) {
	b := New(64)
	b.WriteUint32(0xdeadbeef)
	b.WriteUint64(1 << 60)
	b.WriteInt32(-42)
	b.WriteInt64(-1 << 50)
	b.WriteUvarint(300)
	b.WriteVarint(-300)
	b.WriteBool(true)
	b.WriteBool(false)
	b.WriteFloat64(3.5)
	b.WriteString("hello, 世界")
	b.WriteBytes([]byte{1, 2, 3})

	if v, err := b.ReadUint32(); err != nil || v != 0xdeadbeef {
		t.Errorf("ReadUint32 = %x, %v", v, err)
	}
	if v, err := b.ReadUint64(); err != nil || v != 1<<60 {
		t.Errorf("ReadUint64 = %x, %v", v, err)
	}
	if v, err := b.ReadInt32(); err != nil || v != -42 {
		t.Errorf("ReadInt32 = %d, %v", v, err)
	}
	if v, err := b.ReadInt64(); err != nil || v != -1<<50 {
		t.Errorf("ReadInt64 = %d, %v", v, err)
	}
	if v, err := b.ReadUvarint(); err != nil || v != 300 {
		t.Errorf("ReadUvarint = %d, %v", v, err)
	}
	if v, err := b.ReadVarint(); err != nil || v != -300 {
		t.Errorf("ReadVarint = %d, %v", v, err)
	}
	if v, err := b.ReadBool(); err != nil || v != true {
		t.Errorf("ReadBool = %v, %v", v, err)
	}
	if v, err := b.ReadBool(); err != nil || v != false {
		t.Errorf("ReadBool = %v, %v", v, err)
	}
	if v, err := b.ReadFloat64(); err != nil || v != 3.5 {
		t.Errorf("ReadFloat64 = %v, %v", v, err)
	}
	if v, err := b.ReadString(); err != nil || v != "hello, 世界" {
		t.Errorf("ReadString = %q, %v", v, err)
	}
	if v, err := b.ReadBytes(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("ReadBytes = %v, %v", v, err)
	}
	if b.Len() != 0 {
		t.Errorf("Len after full read = %d, want 0", b.Len())
	}
}

func TestUnderflow(t *testing.T) {
	b := New(0)
	if _, err := b.ReadUint32(); err != ErrUnderflow {
		t.Errorf("ReadUint32 on empty = %v, want ErrUnderflow", err)
	}
	if _, err := b.ReadUint64(); err != ErrUnderflow {
		t.Errorf("ReadUint64 on empty = %v, want ErrUnderflow", err)
	}
	if _, err := b.ReadBool(); err != ErrUnderflow {
		t.Errorf("ReadBool on empty = %v, want ErrUnderflow", err)
	}
	if _, err := b.ReadUvarint(); err != ErrUnderflow {
		t.Errorf("ReadUvarint on empty = %v, want ErrUnderflow", err)
	}
	if _, err := b.ReadString(); err == nil {
		t.Errorf("ReadString on empty = nil error")
	}
	b.WriteByte(3) // claims 3-byte string follows; it does not
	if _, err := b.ReadString(); err != ErrBadString {
		t.Errorf("ReadString with truncated body = %v, want ErrBadString", err)
	}
}

// TestReadCountBoundsDoors: a door count must fit the door slots left, not
// only the bytes — a wire count of doors is refused with ErrBadCount when
// the buffer holds enough bytes but fewer doors.
func TestReadCountBoundsDoors(t *testing.T) {
	counted := func(doors int) *Buffer {
		b := New(16)
		b.WriteUvarint(2)
		b.WriteRaw(make([]byte, 8)) // bytes enough for two elements
		for i := 0; i < doors; i++ {
			b.AppendDoor(i)
		}
		return b
	}
	if n, err := counted(1).ReadCount(true); err != ErrBadCount {
		t.Errorf("ReadCount(true) of 2 with 1 door left = %d, %v; want ErrBadCount", n, err)
	}
	if n, err := counted(1).ReadCount(false); n != 2 || err != nil {
		t.Errorf("ReadCount(false) of 2 with 8 bytes left = %d, %v; want 2, nil", n, err)
	}
	if n, err := counted(2).ReadCount(true); n != 2 || err != nil {
		t.Errorf("ReadCount(true) of 2 with 2 doors left = %d, %v; want 2, nil", n, err)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	b := New(8)
	b.WriteUint32(99)
	for i := 0; i < 3; i++ {
		v, err := b.PeekUint32()
		if err != nil || v != 99 {
			t.Fatalf("peek %d: %d, %v", i, v, err)
		}
	}
	v, err := b.ReadUint32()
	if err != nil || v != 99 {
		t.Fatalf("read after peeks: %d, %v", v, err)
	}
}

type fakeDoor struct{ n int }

func TestDoorSlots(t *testing.T) {
	b := New(16)
	d1, d2 := &fakeDoor{1}, &fakeDoor{2}
	b.WriteDoor(d1)
	b.WriteUint32(5)
	b.WriteDoor(d2)

	got1, err := b.ReadDoor()
	if err != nil || got1 != Door(d1) {
		t.Fatalf("ReadDoor 1 = %v, %v", got1, err)
	}
	if v, _ := b.ReadUint32(); v != 5 {
		t.Fatalf("interleaved uint32 = %d", v)
	}
	got2, err := b.ReadDoor()
	if err != nil || got2 != Door(d2) {
		t.Fatalf("ReadDoor 2 = %v, %v", got2, err)
	}
}

func TestDoorDoubleConsume(t *testing.T) {
	b := New(8)
	b.WriteDoor(&fakeDoor{1})
	if _, err := b.ReadDoor(); err != nil {
		t.Fatal(err)
	}
	b.Rewind()
	if _, err := b.ReadDoor(); err != ErrDoorTaken {
		t.Fatalf("second ReadDoor = %v, want ErrDoorTaken", err)
	}
}

func TestDoorMisalignedStream(t *testing.T) {
	b := New(8)
	b.WriteUvarint(7) // not a door tag
	if _, err := b.ReadDoor(); err != ErrBadDoor {
		t.Fatalf("ReadDoor on non-tag = %v, want ErrBadDoor", err)
	}

	// A correct tag with no out-of-band slot is also rejected.
	b2 := FromParts(New(0).data, nil)
	b2.WriteUvarint(0xD0)
	if _, err := b2.ReadDoor(); err != ErrBadDoor {
		t.Fatalf("ReadDoor with no slots = %v, want ErrBadDoor", err)
	}
}

func TestSplice(t *testing.T) {
	head := New(8)
	dh := &fakeDoor{1}
	head.WriteDoor(dh)
	head.WriteUint32(10)

	body := New(8)
	db := &fakeDoor{2}
	body.WriteUint32(20)
	body.WriteDoor(db)

	head.Splice(body)

	if got, err := head.ReadDoor(); err != nil || got != Door(dh) {
		t.Fatalf("spliced door 1 = %v, %v", got, err)
	}
	if v, _ := head.ReadUint32(); v != 10 {
		t.Fatalf("head uint32 = %d", v)
	}
	if v, _ := head.ReadUint32(); v != 20 {
		t.Fatalf("body uint32 = %d", v)
	}
	if got, err := head.ReadDoor(); err != nil || got != Door(db) {
		t.Fatalf("spliced door 2 = %v, %v", got, err)
	}
	if head.Len() != 0 {
		t.Fatalf("leftover bytes: %d", head.Len())
	}
}

func TestTakeAndReplaceDoors(t *testing.T) {
	b := New(8)
	d1, d2, d3 := &fakeDoor{1}, &fakeDoor{2}, &fakeDoor{3}
	b.WriteDoor(d1)
	b.WriteDoor(d2)
	b.WriteDoor(d3)
	if _, err := b.ReadDoor(); err != nil { // consume d1
		t.Fatal(err)
	}
	taken := b.TakeDoors()
	if len(taken) != 2 || taken[0] != Door(d2) || taken[1] != Door(d3) {
		t.Fatalf("TakeDoors = %v", taken)
	}
	if got := b.TakeDoors(); len(got) != 0 {
		t.Fatalf("second TakeDoors = %v, want empty", got)
	}

	// Rebuild from parts with replaced doors, as netd does.
	nb := FromParts(b.Bytes(), make([]Door, b.DoorCount()))
	if err := nb.ReplaceDoors([]Door{d1, d2, d3}); err != nil {
		t.Fatal(err)
	}
	if err := nb.ReplaceDoors([]Door{d1}); err == nil {
		t.Fatal("ReplaceDoors with wrong count succeeded")
	}
}

func TestFromPartsPreservesStream(t *testing.T) {
	b := New(8)
	b.WriteString("abc")
	b.WriteDoor(&fakeDoor{9})
	nb := FromParts(b.Bytes(), b.Doors())
	if s, err := nb.ReadString(); err != nil || s != "abc" {
		t.Fatalf("ReadString = %q, %v", s, err)
	}
	if _, err := nb.ReadDoor(); err != nil {
		t.Fatalf("ReadDoor = %v", err)
	}
}

func TestReset(t *testing.T) {
	b := New(8)
	b.WriteString("abc")
	b.WriteDoor(&fakeDoor{1})
	b.Reset()
	if b.Size() != 0 || b.DoorCount() != 0 || b.Len() != 0 {
		t.Fatalf("after Reset: size=%d doors=%d len=%d", b.Size(), b.DoorCount(), b.Len())
	}
}

func TestReadRaw(t *testing.T) {
	b := New(8)
	b.WriteRaw([]byte{1, 2, 3, 4})
	p, err := b.ReadRaw(3)
	if err != nil || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("ReadRaw = %v, %v", p, err)
	}
	if _, err := b.ReadRaw(2); err != ErrUnderflow {
		t.Fatalf("overlong ReadRaw = %v, want ErrUnderflow", err)
	}
	if _, err := b.ReadRaw(-1); err != ErrUnderflow {
		t.Fatalf("negative ReadRaw = %v, want ErrUnderflow", err)
	}
}

// Property: any sequence of (uint64, string, bytes, bool, float) values
// written then read returns the same values in order.
func TestQuickRoundTrip(t *testing.T) {
	f := func(us []uint64, ss []string, bs [][]byte, fs []float64) bool {
		b := New(0)
		for _, u := range us {
			b.WriteUint64(u)
			b.WriteUvarint(u)
		}
		for _, s := range ss {
			b.WriteString(s)
		}
		for _, p := range bs {
			b.WriteBytes(p)
		}
		for _, v := range fs {
			b.WriteFloat64(v)
		}
		for _, u := range us {
			if got, err := b.ReadUint64(); err != nil || got != u {
				return false
			}
			if got, err := b.ReadUvarint(); err != nil || got != u {
				return false
			}
		}
		for _, s := range ss {
			if got, err := b.ReadString(); err != nil || got != s {
				return false
			}
		}
		for _, p := range bs {
			got, err := b.ReadBytes()
			if err != nil || !bytes.Equal(got, p) {
				return false
			}
		}
		for _, v := range fs {
			got, err := b.ReadFloat64()
			if err != nil {
				return false
			}
			if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				return false
			}
		}
		return b.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reading from a buffer of random garbage never panics and never
// returns data larger than the buffer.
func TestQuickGarbageSafe(t *testing.T) {
	f := func(garbage []byte) bool {
		b := FromParts(garbage, nil)
		for b.Len() > 0 {
			before := b.Len()
			if s, err := b.ReadString(); err == nil && len(s) > len(garbage) {
				return false
			}
			if b.Len() == before {
				// ReadString failed without consuming; consume a byte to progress.
				if _, err := b.ReadByte(); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := New(0)
		b.WriteVarint(v)
		got, err := b.ReadVarint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringDebug(t *testing.T) {
	b := New(0)
	b.WriteUint32(1)
	if s := b.String(); s == "" {
		t.Fatal("String returned empty")
	}
}
