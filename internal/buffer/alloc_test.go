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
	// pool kept re-making 64 KiB buffers for sixteen frames in flight. The
	// same holds for an 8 KiB BulkThreshold payload in the small class.
	arrayFor := func(hint int) int {
		var b Buffer
		b.alloc(hint)
		if !b.headed() || cap(b.data) < hint {
			t.Fatalf("alloc(%d): headed %v, capacity %d", hint, b.headed(), cap(b.data))
		}
		return cap(b.front)
	}
	for _, frame := range []int{64<<10 + 25, 8<<10 + 25} { // a write's frame at offset 0; two bytes longer from offset 16384 on
		if short, long := arrayFor(frame), arrayFor(frame+2); short != long || short%roundTo != 0 {
			t.Errorf("hints of %d and %d have arrays of %d and %d bytes, want the same multiple of %d", frame, frame+2, short, long, roundTo)
		}
	}
	if got := arrayFor(roundFrom - headroom); got != roundFrom {
		t.Errorf("an array of %d bytes is rounded to %d: small buffers are exact", roundFrom, got)
	}
	b := Get(1 << 20) // larger than anything the suite has pooled, so freshly allocated
	defer Put(b)
	b2 := Get(1<<20 + 3)
	defer Put(b2)
	if got, got2 := cap(b.Bytes()), cap(b2.Bytes()); got != 1<<20+roundTo-headroom || got2 != got {
		t.Errorf("Get(1 MiB) and Get(1 MiB + 3) have capacities %d and %d, want the next multiple of %d less the headroom", got, got2, roundTo)
	}
}
