package buffer

import (
	"bytes"
	"testing"
	"unsafe"
)

// The ownership rule, from the outside: whatever a call site Puts, only
// storage the pool handed out comes back from Get.

// base is the address of s's backing array (nil for a capacity-0 slice).
func base(s []byte) unsafe.Pointer {
	if cap(s) == 0 {
		return nil
	}
	return unsafe.Pointer(&s[:1][0])
}

// drawn Gets n buffers, hands each to visit, and puts them all back.
func drawn(n int, visit func(*Buffer)) {
	held := make([]*Buffer, n)
	for i := range held {
		held[i] = Get(8)
		visit(held[i])
	}
	for _, b := range held {
		Put(b)
	}
}

func TestPutOfForeignBufferNeverEntersThePool(t *testing.T) {
	// netd used to build each request as FromParts over a slice of the
	// frame it had just read and then Put it: the pool gained a Buffer
	// whose storage aliased the 30-byte frame, useless to the next Get and
	// kept alive by it. A foreign buffer now stays out, however it is
	// built.
	frame := make([]byte, 30)
	foreign := []*Buffer{
		FromParts(frame[10:20:20], nil),
		New(64),
		{},
	}
	before := Stats()
	for _, b := range foreign {
		Put(b)
	}
	after := Stats()
	if got := after.Drops - before.Drops; got != int64(len(foreign)) {
		t.Errorf("ledger counted %d drops for %d foreign puts", got, len(foreign))
	}
	if after.Puts != before.Puts {
		t.Errorf("ledger counted %d pool puts for foreign buffers", after.Puts-before.Puts)
	}
	lo, hi := uintptr(base(frame)), uintptr(base(frame))+uintptr(len(frame))
	drawn(64, func(b *Buffer) {
		for _, f := range foreign {
			if b == f {
				t.Fatalf("Get returned a buffer the pool never handed out: %p", b)
			}
		}
		if p := uintptr(base(b.data)); p >= lo && p < hi {
			t.Fatalf("Get returned storage inside a frame the pool does not own")
		}
	})
}

func TestPutTwiceIsADrop(t *testing.T) {
	// The second Put of one buffer must not put it in the pool twice —
	// two later Gets would share it.
	b := Get(8)
	before := Stats()
	Put(b)
	Put(b)
	after := Stats()
	if after.Puts-before.Puts != 1 || after.Drops-before.Drops != 1 {
		t.Fatalf("double put: %d puts, %d drops, want 1 and 1", after.Puts-before.Puts, after.Drops-before.Drops)
	}
	seen := 0
	drawn(64, func(g *Buffer) {
		if g == b {
			seen++
		}
	})
	if seen > 1 {
		t.Fatalf("the pool handed one buffer out %d times at once", seen)
	}
}

func TestLedgerBalances(t *testing.T) {
	before := Stats()
	drawn(32, func(*Buffer) {})
	after := Stats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != 32 || puts != 32 {
		t.Fatalf("32 get/put pairs moved the ledger by %d gets, %d puts", gets, puts)
	}
	// A Get the pool cannot satisfy is a miss, whichever part was missing.
	before = Stats()
	b := Get(maxPooledCap + 1) // no pooled storage is this large
	if got := Stats().Misses - before.Misses; got != 1 {
		t.Fatalf("oversized Get counted %d misses, want 1", got)
	}
	Put(b)
	if got := Stats().Puts - before.Puts; got != 1 {
		t.Fatalf("put of an oversized buffer counted %d puts, want 1 (the struct is pooled, the storage dropped)", got)
	}
}

func TestNarrowedFrameReturnsWhole(t *testing.T) {
	// The serve path: a frame is read into a pooled buffer, which then
	// becomes the request in place — stream narrowed to the payload,
	// imported doors attached. Put must hand the pool the whole array
	// back, not the window.
	frame := []byte("hdr:PAYLOAD:descriptors")
	b := Get(len(frame))
	if err := b.ReadFull(bytes.NewReader(frame), len(frame)); err != nil {
		t.Fatal(err)
	}
	whole, capacity := base(b.data), cap(b.data)
	b.Narrow(4, 7)
	b.AppendDoor("imported")
	if string(b.Bytes()) != "PAYLOAD" || b.Len() != 7 || b.DoorCount() != 1 {
		t.Fatalf("narrowed buffer = %q (%d unread, %d doors)", b.Bytes(), b.Len(), b.DoorCount())
	}
	b.WriteByte('!') // clipped capacity: must reallocate, not clobber the frame
	if string(b.store) != string(frame) {
		t.Fatalf("append to a narrowed stream wrote over the rest of the frame: %q", b.store)
	}
	Put(b)
	if base(b.data) != whole || cap(b.data) != capacity || len(b.data) != 0 || b.store != nil || len(b.doors) != 0 {
		t.Fatalf("after Put: cap %d (want %d), len %d, store %v, %d doors", cap(b.data), capacity, len(b.data), b.store != nil, len(b.doors))
	}
}

func TestFrameCycleAllocs(t *testing.T) {
	// One served call's worth of request-side buffer work — draw, fill
	// from the socket, narrow to the payload, attach a door, put back —
	// allocates nothing in steady state, doors included.
	frame := bytes.Repeat([]byte{7}, 48)
	rd := bytes.NewReader(frame)
	var door Door = "proxy"
	n := testing.AllocsPerRun(500, func() {
		rd.Reset(frame)
		b := Get(len(frame))
		if err := b.ReadFull(rd, len(frame)); err != nil {
			t.Fatal(err)
		}
		b.Narrow(18, 8)
		b.AppendDoor(door)
		Put(b)
	})
	if n > 0 {
		t.Fatalf("frame cycle allocates %.1f objects/op, want 0", n)
	}
}

func TestPoisonRecycled(t *testing.T) {
	PoisonRecycled(true)
	defer PoisonRecycled(false)
	b := Get(32)
	b.WriteString("argument bytes a skeleton kept")
	kept, _ := b.ReadBytes()
	Put(b)
	for _, c := range kept {
		if c != 0xDB {
			t.Fatalf("bytes retained past Put read %q, want poison", kept)
		}
	}
	// Storage the pool does not own is never written to.
	mine := []byte("caller's array")
	Put(FromParts(mine, nil))
	if string(mine) != "caller's array" {
		t.Fatalf("Put poisoned foreign storage: %q", mine)
	}
}

func TestRegionPoolBuffersGoHome(t *testing.T) {
	p := NewRegionPool(128)
	b := p.Get()
	b.WriteString("args marshalled in place")
	before := Stats()
	Put(b)
	if after := Stats(); after != before {
		t.Fatalf("a region-pool buffer moved the process pool's ledger: %+v -> %+v", before, after)
	}
	if b.Size() != 0 || cap(b.data) != 128 {
		t.Fatalf("region buffer came back with %d bytes, cap %d", b.Size(), cap(b.data))
	}
}
