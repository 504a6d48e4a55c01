package buffer

import "testing"

func TestPooledRoundTripAllocs(t *testing.T) {
	// ISSUE 3 acceptance: a Get/write/Put round trip through the pool
	// must not allocate in steady state — this is the frame-assembly
	// path every netd send takes.
	n := testing.AllocsPerRun(500, func() {
		b := Get(128)
		b.WriteByte(1)
		b.WriteUint64(42)
		b.WriteString("payload")
		Put(b)
	})
	if n > 0 {
		t.Fatalf("pooled round trip allocates %.1f objects/op, want 0", n)
	}
}

func TestPutClearsDoors(t *testing.T) {
	// A recycled buffer must not pin door references from its previous
	// life: Reset (and therefore Put) clears the doors backing array
	// before truncating it, so the pool cannot keep dropped references
	// reachable.
	b := New(16)
	b.WriteDoor("a door reference")
	backing := b.doors[:1]
	b.Reset()
	if backing[0] != nil {
		t.Fatalf("Reset left door slot populated: %v", backing[0])
	}
	if len(b.doors) != 0 {
		t.Fatalf("reset buffer carries %d doors", len(b.doors))
	}
}

func TestGetRoundsCapacity(t *testing.T) {
	// Frames carrying the same 64 KiB payload differ by a few bytes of
	// varint from one offset to the next. With exact capacities a buffer
	// sized by the shorter frame was a miss for the longer one, and the
	// pool kept re-making 64 KiB buffers for sixteen frames in flight.
	const frame = 64<<10 + 25 // a write's frame at offset 0; two bytes longer from offset 16384 on
	short, long := roundCap(frame), roundCap(frame+2)
	if short < frame+2 || short%roundTo != 0 || long != short {
		t.Fatalf("hints of %d and %d allocate capacities %d and %d, want the same multiple of %d", frame, frame+2, short, long, roundTo)
	}
	if got := roundCap(roundFrom); got != roundFrom {
		t.Fatalf("a hint of %d allocates capacity %d: small buffers are not rounded", roundFrom, got)
	}
	b := Get(1 << 20) // larger than anything the suite has pooled, so freshly allocated
	defer Put(b)
	if got := cap(b.Bytes()); got != roundCap(1<<20) || got != 1<<20 {
		t.Fatalf("Get(1 MiB) has capacity %d", got)
	}
	b2 := Get(1<<20 + 3)
	defer Put(b2)
	if got := cap(b2.Bytes()); got != 1<<20+roundTo {
		t.Fatalf("Get(1 MiB + 3) has capacity %d, want %d", got, 1<<20+roundTo)
	}
}
