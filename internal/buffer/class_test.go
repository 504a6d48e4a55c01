package buffer

import (
	"bytes"
	"sync"
	"testing"
)

// Tests for the pool's two size classes, the exchange of storage between
// them, and the headroom a pooled buffer carries in front of its stream.

// testFrame is the size of a 64 KiB write's call frame, testSmall of a null
// call's.
const (
	testFrame = 64<<10 + 25
	testSmall = 30
)

// drainLarge empties the large class, so a test starts from a known idle
// set. It drops the buffers as a collection would, without Trim's
// syscalls: a goroutine back from one may be on another P, where the small
// class's per-P cache does not have what it put a moment before.
func drainLarge() {
	large.mu.Lock()
	defer large.mu.Unlock()
	clear(large.idle)
	large.idle, large.low = large.idle[:0], 0
}

// idleLarge reports how many buffers the large class holds idle.
func idleLarge() int {
	large.mu.Lock()
	defer large.mu.Unlock()
	return len(large.idle)
}

func TestSmallCallsDoNotPinLargeArrays(t *testing.T) {
	// The ratchet this replaces: Get(n) on a pooled buffer that was too
	// small allocated a fresh array even while idle 72 KiB arrays sat in
	// other pooled buffers, and every pooled buffer a bulk call touched
	// kept the array it grew — sixteen 64 KiB frames in flight left 34
	// payload-sized arrays behind calls that then carried 1 KiB.
	drainLarge()
	body := bytes.Repeat([]byte{9}, testFrame)
	before := Stats()
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		held := make(chan *Buffer, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() { // readFrame's shape: draw at the frame's size, fill from the socket
				defer wg.Done()
				b := Get(testFrame)
				if err := b.ReadFull(bytes.NewReader(body), testFrame); err != nil {
					t.Error(err)
				}
				held <- b
			}()
		}
		wg.Wait() // all sixteen in flight at once
		close(held)
		for b := range held {
			Put(b)
		}
	}
	for i := 0; i < 10_000; i++ {
		b := Get(testSmall)
		if c := cap(b.data); c+headroom >= largeClass {
			t.Fatalf("small Get %d returned capacity %d, a large-class array", i, c)
		}
		b.WriteUint64(uint64(i))
		Put(b)
	}
	d := Stats().Sub(before)
	if d.LargeAllocs > 18 {
		t.Errorf("%d large arrays allocated for 16 frames in flight × 4 rounds, want ≤ 18", d.LargeAllocs)
	}
	if d.Gets != d.Puts {
		t.Errorf("ledger: %d gets, %d puts", d.Gets, d.Puts)
	}
}

func TestGrowthBorrowsIdleLarge(t *testing.T) {
	// A stub's argument buffer is drawn small and learns its size at
	// WriteBytes. With an idle large buffer pooled it takes over that
	// buffer's array instead of allocating a second one: no allocation, no
	// ledger movement, and both structs end up pooled with storage.
	if raceEnabled {
		t.Skip("the small class is a sync.Pool, which drops a quarter of its puts under the race detector")
	}
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	cycle := func() {
		Put(Get(testFrame)) // idle, in the large class
		small := Get(64)
		small.WriteUint32(7)
		small.WriteBytes(payload)
		Put(small)
	}
	cycle() // warm: the array exists now

	drainLarge()
	idle := Get(testFrame)
	Put(idle)
	idleArray, idleCap := base(idle.front), cap(idle.data)
	before := Stats()
	b := Get(64)
	ownArray := base(b.front)
	b.WriteUint32(7)
	b.WriteBytes(payload)
	if base(b.front) != idleArray || cap(b.data) != idleCap {
		t.Fatalf("the growing buffer did not take over the idle large array (cap %d, want %d)", cap(b.data), idleCap)
	}
	if base(idle.front) != ownArray || idle.home != nil {
		t.Fatal("the idle buffer did not get the small array in exchange, or left the pool")
	}
	if v, _ := b.ReadUint32(); v != 7 {
		t.Fatalf("leading field = %d after the exchange", v)
	}
	if got, err := b.ReadBytes(); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload after the exchange: %d bytes, %v", len(got), err)
	}
	if p := b.Prepend(headroom, 0); p == nil {
		t.Fatal("the exchanged-in array lost its headroom")
	}
	d := Stats().Sub(before)
	if d.Gets != 1 || d.Puts != 0 || d.LargeAllocs != 0 || d.Misses != 0 {
		t.Fatalf("an exchange of storage moved the ledger: %+v", d)
	}
	Put(b)
	if cap(b.data)+headroom < largeClass || cap(idle.data) == 0 || cap(idle.data)+headroom >= largeClass {
		t.Fatalf("after Put: grown buffer cap %d, exchanged buffer cap %d", cap(b.data), cap(idle.data))
	}

	if n := testing.AllocsPerRun(200, cycle); n > 0 {
		t.Fatalf("growth with an idle large buffer pooled allocates %.1f objects, want 0", n)
	}
}

func TestReserveBorrowsIdleLarge(t *testing.T) {
	// The one growth site whose size the buffer cannot see: a reply drawn
	// small, whose bytes result the producer appends into ReserveBytes'
	// tail. With a large buffer idle the tail is that buffer's array, so a
	// payload lands in place; a small result moves back to a small array at
	// CommitBytes and leaves the large one idle again — whatever size the
	// producer returned the time before.
	if raceEnabled {
		t.Skip("the small class is a sync.Pool, which drops a quarter of its puts under the race detector")
	}
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	result := func(n int) *Buffer {
		b := Get(128)
		b.WriteUint32(0) // the stub layer's status word
		b.CommitBytes(append(b.ReserveBytes(), payload[:n]...))
		return b
	}
	drainLarge()
	Put(Get(testFrame)) // one large buffer, idle
	Put(result(1 << 10))
	before := Stats()

	big := result(64 << 10)
	if !isLarge(cap(big.data)) || idleLarge() != 0 {
		t.Fatalf("a 64 KiB result lies on an array of %d bytes with the large class still stocked", cap(big.data))
	}
	if p := big.Prepend(headroom, 1); p == nil {
		t.Fatal("the borrowed array has no headroom or no tail room")
	}
	Put(big)

	small := result(1 << 10)
	if isLarge(cap(small.data)) {
		t.Fatalf("a 1 KiB result carries an array of %d bytes on to the socket", cap(small.data))
	}
	if v, _ := small.ReadUint32(); v != 0 {
		t.Fatalf("status word = %d after two exchanges", v)
	}
	if got, err := small.ReadBytes(); err != nil || !bytes.Equal(got, payload[:1<<10]) {
		t.Fatalf("result after two exchanges: %d bytes, %v", len(got), err)
	}
	if p := small.Prepend(headroom, 1); p == nil {
		t.Fatal("the small array has no headroom or no tail room")
	}
	if idleLarge() != 1 {
		t.Fatal("the large array is not idle again after a small result")
	}
	Put(small)
	// The move to the large array is an exchange, which the ledger does
	// not see; the move back draws a small buffer and puts it back large.
	if d := Stats().Sub(before); d.Gets != 3 || d.Puts != 3 || d.LargeAllocs != 0 || d.Misses != 0 {
		t.Fatalf("two results moved the ledger by %+v", d)
	}

	mixed := func() { Put(result(64 << 10)); Put(result(1 << 10)) }
	if n := testing.AllocsPerRun(200, mixed); n > 0 {
		t.Fatalf("alternating 64 KiB and 1 KiB results allocate %.1f objects a pair, want 0", n)
	}

	// With none idle the producer makes its own array and CommitBytes a
	// pooled one to copy it into: both are counted.
	drainLarge()
	before = Stats()
	Put(result(64 << 10))
	if d := Stats().Sub(before); d.LargeAllocs != 2 {
		t.Fatalf("a 64 KiB result with no large buffer idle counted %d large arrays, want 2", d.LargeAllocs)
	}
}

func TestTrimReleasesIdleLarge(t *testing.T) {
	// A burst's arrays, idle from then on, leave the pool within two Trims
	// — two ticks of netd's sweeper — and the next frame makes one again.
	drainLarge()
	held := make([]*Buffer, 16)
	for i := range held {
		held[i] = Get(testFrame)
	}
	for _, b := range held {
		Put(b)
	}
	before := Stats()
	Trim() // starts the interval: the sixteen were put back during the last one
	Trim()
	if n := idleLarge(); n != 0 {
		t.Fatalf("%d large buffers still idle after two Trims", n)
	}
	if d := Stats().Sub(before); d.Released != 16 {
		t.Fatalf("two Trims released %d arrays of the sixteen idle, want 16", d.Released)
	}
	before = Stats()
	Put(Get(testFrame))
	if d := Stats().Sub(before); d.LargeAllocs != 1 {
		t.Fatalf("the first frame after the trim counted %d large arrays, want 1", d.LargeAllocs)
	}
}

func TestTrimKeepsWorkingSet(t *testing.T) {
	// A steady bulk load draws its arrays in every interval, so Trim finds
	// none idle throughout and the load never re-makes one.
	drainLarge()
	cycle := func() {
		var held [4]*Buffer
		for i := range held {
			held[i] = Get(testFrame)
		}
		for _, b := range held {
			Put(b)
		}
	}
	cycle()
	before := Stats()
	for i := 0; i < 10; i++ {
		cycle()
		Trim()
	}
	if d := Stats().Sub(before); d.LargeAllocs != 0 || d.Released != 0 {
		t.Fatalf("four arrays cycled across ten Trims: %d made, %d released; want 0 and 0", d.LargeAllocs, d.Released)
	}
	if n := idleLarge(); n != 4 {
		t.Fatalf("%d large buffers idle after the load, want its 4", n)
	}
}

func TestExchangePoisonsBothArrays(t *testing.T) {
	// Poison-on-recycle covers the array exchanged out of a growing buffer
	// as well as the one Put returns.
	PoisonRecycled(true)
	defer PoisonRecycled(false)
	drainLarge()
	idle := Get(testFrame)
	Put(idle)
	idleArray := base(idle.front)
	b := Get(64)
	b.WriteString("bytes a skeleton kept")
	kept, _ := b.ReadBytes()
	b.WriteRaw(make([]byte, 64<<10)) // crosses the class boundary: exchanges storage
	if base(b.front) != idleArray {
		t.Fatal("the growing buffer did not take over the idle large array")
	}
	for _, c := range kept {
		if c != 0xDB {
			t.Fatalf("bytes in the exchanged-out array read %q, want poison", kept)
		}
	}
	Put(b)
}

func TestPrepend(t *testing.T) {
	b := Get(64)
	b.WriteString("payload")
	body := append([]byte(nil), b.Bytes()...)
	own, capacity := base(b.data), cap(b.data)
	hdr := b.Prepend(14, 0)
	if len(hdr) != 14 {
		t.Fatalf("Prepend(14) on a fresh pooled buffer = %d bytes", len(hdr))
	}
	copy(hdr, "HEADERHEADERHE")
	b.WriteByte('!') // the tail still appends in place
	if got := string(b.Bytes()); got != "HEADERHEADERHE"+string(body)+"!" {
		t.Fatalf("stream after Prepend = %q", got)
	}
	if base(b.data[14:]) != own {
		t.Fatal("Prepend moved the payload")
	}
	if b.Prepend(1, 0) != nil {
		t.Fatal("a second Prepend found room")
	}
	Put(b)
	if base(b.data) != own || cap(b.data) != capacity || len(b.data) != 0 || b.store != nil {
		t.Fatalf("after Put: cap %d (want %d), len %d, store %v", cap(b.data), capacity, len(b.data), b.store != nil)
	}

	// No headroom to write into: more than there is, foreign storage, a
	// window into a frame, an array append made.
	if b := Get(64); b.Prepend(headroom+1, 0) != nil {
		t.Error("Prepend handed out more than the headroom")
	} else {
		Put(b)
	}
	full := Get(64)
	full.WriteRaw(make([]byte, cap(full.data)))
	if full.Prepend(4, 1) != nil {
		t.Error("Prepend framed a stream with no room behind it for the byte the caller appends next")
	} else if full.Prepend(4, 0) == nil {
		t.Error("a full stream has its headroom all the same")
	}
	Put(full)
	if New(64).Prepend(4, 0) != nil || FromParts(make([]byte, 8, 64), nil).Prepend(4, 0) != nil {
		t.Error("Prepend wrote in front of storage the pool does not own")
	}
	narrowed := Get(64)
	narrowed.WriteString("hdr:PAYLOAD")
	narrowed.Narrow(5, 7)
	if narrowed.Prepend(4, 0) != nil {
		t.Error("Prepend wrote over the frame in front of a narrowed stream")
	}
	Put(narrowed)
	regrown := Get(64)
	for regrown.headed() {
		regrown.WriteUint64(1) // small appends, until one moves the stream
	}
	if regrown.Prepend(4, 0) != nil {
		t.Error("Prepend wrote in front of an array append allocated")
	}
	Put(regrown)
	if !regrown.headed() {
		t.Error("Put did not give the regrown array a headroom")
	}
}

func TestFramePrependAllocs(t *testing.T) {
	// One served reply's worth of buffer work — draw, marshal, prepend the
	// frame header, append the descriptor count, put back — allocates
	// nothing in steady state.
	n := testing.AllocsPerRun(500, func() {
		b := Get(128)
		b.WriteUint32(0)
		b.WriteUint64(42)
		if hdr := b.Prepend(14, 1); hdr == nil {
			t.Fatal("no headroom")
		}
		b.WriteUvarint(0)
		Put(b)
	})
	if n > 0 {
		t.Fatalf("reply framing allocates %.1f objects/op, want 0", n)
	}
}
