// Package buffer implements the communication buffers used by the
// subcontract machinery.
//
// A Buffer is a typed marshal stream: stubs and subcontracts append
// primitive values to it when building a call or a marshalled object, and
// read them back on the receiving side. Besides the byte stream a Buffer
// carries an out-of-band sequence of door references (compare Mach port
// rights in messages): doors are capabilities managed by the kernel and
// cannot be flattened to bytes inside a machine, so WriteDoor records the
// reference out-of-band and splices a positional index into the byte
// stream. The network door servers (package netd) translate these
// references to an extended network form when a buffer crosses machines.
//
// The zero value of Buffer is an empty buffer ready for writing.
package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Door is an opaque door reference slot. The kernel and the network door
// servers define the concrete types stored here; the buffer only transports
// them positionally.
type Door any

// Errors returned by read operations.
var (
	// ErrUnderflow is returned when a read runs past the end of the
	// buffer's byte stream.
	ErrUnderflow = errors.New("buffer: read past end of buffer")
	// ErrBadString is returned when a marshalled string or byte sequence
	// has a corrupt length prefix.
	ErrBadString = errors.New("buffer: corrupt length prefix")
	// ErrBadDoor is returned when the byte stream does not carry a door
	// tag at the read position, or no out-of-band door slot remains.
	ErrBadDoor = errors.New("buffer: stream misaligned with door slots")
	// ErrDoorTaken is returned when a door slot has already been consumed
	// by an earlier ReadDoor.
	ErrDoorTaken = errors.New("buffer: door slot already consumed")
	// ErrBadCount is returned when an element count exceeds what the rest
	// of the buffer could hold.
	ErrBadCount = errors.New("buffer: count exceeds the remaining stream")
)

// doorTag is spliced into the byte stream at each WriteDoor so misaligned
// reads are detected. Door references themselves travel out-of-band and are
// consumed in FIFO order, which keeps streams spliceable: appending one
// buffer's bytes and doors to another preserves the pairing.
const doorTag = 0xD0

// Buffer is a marshal stream plus out-of-band door references.
// It is not safe for concurrent use.
type Buffer struct {
	data    []byte
	rpos    int
	doors   []Door
	dcursor int
	// store is the stream's whole extent while data is a window into it
	// (Narrow) or runs over the headroom in front of it (Prepend). Reset
	// undoes both.
	store []byte
	// front is the pooled array from its first byte: Get starts the stream
	// headroom bytes into it, the room Prepend extends the stream over. An
	// append moves the stream elsewhere and leaves front behind; headed
	// tells.
	front []byte
	// home is how the buffer was obtained: the pool that handed it out
	// and that Put returns it to. Nil for a buffer no pool handed out
	// (New, FromParts, the zero value) and for one already returned.
	home *sync.Pool
}

// New returns an empty buffer with capacity hint n. It belongs to the
// collector: Put on it recycles nothing.
func New(n int) *Buffer {
	return &Buffer{data: make([]byte, 0, n)}
}

// pool and large recycle Buffers for the marshal and frame paths (netd
// frames, skeleton replies, stub arguments) in two size classes. Capacity
// and the door slice are retained across uses, so a steady-state call
// allocates nothing. Put files a buffer by the capacity it has, Get(n)
// draws from the class of n, and a buffer that must cross from small to
// large takes over an idle large buffer's array (grow, ReserveBytes): a
// payload-sized array is allocated only when none is idle, and the small
// calls after a large one never draw, so never pin, its array. home is
// &pool for both.
var pool sync.Pool

// large is the large class: a stack of idle buffers, the last put on top,
// and low, the fewest it has held since the last Trim. Not a sync.Pool:
// only a collection empties one, and a server that allocates little hardly
// ever collects, so a burst's arrays stayed resident all run (E36).
var large struct {
	mu   sync.Mutex
	idle []*Buffer
	low  int
}

// takeLarge takes the idle large buffer nearest the top with room for need
// bytes, or returns nil. A top too small must not hide the ones beneath it,
// which would lie idle, and be trimmed, beside a frame allocating.
func takeLarge(need int) *Buffer {
	large.mu.Lock()
	defer large.mu.Unlock()
	for i := len(large.idle) - 1; i >= 0; i-- {
		if b := large.idle[i]; cap(b.data) >= need {
			large.idle = slices.Delete(large.idle, i, i+1)
			large.low = min(large.low, i)
			return b
		}
	}
	return nil
}

// Trim releases the large arrays idle since the previous Trim, those below
// low: their whole pages go back to the kernel (MADV_DONTNEED), the arrays
// to the collector. netd's sweepers call it each tick (the interval is the
// time since the last call, whichever server made it), so a burst's arrays
// leave RSS within two ticks and a steady load keeps its working set. The
// arrays hold no pointers and the pool owns them: a reader that broke Put's
// contract sees zeros, much as it would see poison. Trim does not collect:
// a cycle costs more RSS than it frees (E36).
func Trim() {
	large.mu.Lock()
	defer large.mu.Unlock()
	pg := uintptr(syscall.Getpagesize())
	for _, b := range large.idle[:large.low] {
		p := b.front[:cap(b.front)]
		at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		lo, hi := (at+pg-1)&^(pg-1)-at, (at+uintptr(len(p)))&^(pg-1)-at
		_ = syscall.Madvise(p[lo:max(lo, hi)], syscall.MADV_DONTNEED)
	}
	ledger.released.Add(int64(large.low))
	large.idle = slices.Delete(large.idle, 0, large.low)
	large.low = len(large.idle)
}

// largeClass is the array size from which a buffer is in the large class.
// Recorded frames below it: the 30-byte null call, 1 KiB reads and writes
// (≈ 1.1 KiB), root imports, stat replies, an 8 KiB BulkThreshold payload;
// above it: the 64 KiB read and write frames (65 561 bytes, a 72 KiB
// array). It is the allocator's boundary too: from 32 KiB an array is a
// page run of its own, not a slot in a size-classed span.
const largeClass = 32 << 10

// headroom is what Get leaves free in front of the stream: room for the
// header netd prepends to turn a reply buffer into the reply frame (14
// bytes; 16 keeps the stream aligned).
const headroom = 16

// isLarge reports whether a stream capacity of n belongs to the large class.
func isLarge(n int) bool { return n+headroom >= largeClass }

// Large reports whether the buffer's own array is in the large class —
// for a frame, whether reading it drew a payload-sized array.
func (b *Buffer) Large() bool {
	if b.store != nil {
		return isLarge(cap(b.store))
	}
	return isLarge(cap(b.data))
}

// maxPooledCap bounds the byte capacity a pooled buffer may retain; the
// storage of one grown past it (one giant frame) is dropped to the
// collector rather than pinning the memory in the pool.
const maxPooledCap = 256 << 10

// ledger counts the pool's traffic. Gets and puts balance when every
// buffer drawn is handed back (an exchange of storage with an idle buffer
// is neither); misses are the Gets that had to allocate (a fresh struct,
// fresh storage, or both); drops are Puts of buffers the pool never handed
// out, or handed out and already took back; largeAllocs are the large-class
// arrays allocated — by the pool, or by a producer whose result outgrew
// ReserveBytes' tail — flat once as many exist as are ever in use at once;
// released are the large arrays Trim gave back.
var ledger struct {
	gets, misses, puts, drops, largeAllocs, released atomic.Int64
}

// Ledger is a snapshot of the pool's counters since process start.
type Ledger struct {
	Gets        int64 `json:"gets"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Drops       int64 `json:"drops"`
	LargeAllocs int64 `json:"large_allocs"`
	Released    int64 `json:"released"`
}

// Sub returns the traffic between an earlier snapshot and l.
func (l Ledger) Sub(earlier Ledger) Ledger {
	return Ledger{
		Gets:        l.Gets - earlier.Gets,
		Misses:      l.Misses - earlier.Misses,
		Puts:        l.Puts - earlier.Puts,
		Drops:       l.Drops - earlier.Drops,
		LargeAllocs: l.LargeAllocs - earlier.LargeAllocs,
		Released:    l.Released - earlier.Released,
	}
}

// Stats returns the pool's ledger.
func Stats() Ledger {
	return Ledger{
		Gets:        ledger.gets.Load(),
		Misses:      ledger.misses.Load(),
		Puts:        ledger.puts.Load(),
		Drops:       ledger.drops.Load(),
		LargeAllocs: ledger.largeAllocs.Load(),
		Released:    ledger.released.Load(),
	}
}

// Get returns an empty buffer from the process-wide pool, drawn from the
// size class of n — the hint says what the buffer will hold, not what it
// holds at first — with capacity at least n. Release it with Put when its
// contents are dead.
func Get(n int) *Buffer {
	ledger.gets.Add(1)
	var b *Buffer
	if isLarge(n) {
		b = takeLarge(n)
	} else {
		b, _ = pool.Get().(*Buffer)
	}
	fresh := b == nil
	if fresh {
		b = &Buffer{}
	}
	b.home = &pool
	if cap(b.data) < n {
		b.alloc(n)
		fresh = true
	}
	if fresh {
		ledger.misses.Add(1)
	}
	return b
}

// alloc moves the stream to a fresh array of its own: the headroom, then
// room for n bytes. An array past roundFrom is rounded up to a multiple of
// roundTo (8 KiB pages, which the allocator hands out whole from 32 KiB
// anyway): frames carrying the same payload differ by a few bytes (a 64 KiB
// write at offset 0 is two varint bytes shorter than one at offset 16384),
// and exact capacities made each a miss for the other.
func (b *Buffer) alloc(n int) {
	total := headroom + n
	if total > roundFrom {
		total = (total + roundTo - 1) / roundTo * roundTo
	}
	if total >= largeClass {
		ledger.largeAllocs.Add(1)
	}
	front := make([]byte, headroom+len(b.data), total)
	copy(front[headroom:], b.data)
	b.front, b.data = front[:0], front[headroom:]
}

const (
	roundFrom = 4 << 10
	roundTo   = 8 << 10
)

// headed reports whether the stream still begins headroom bytes into front.
func (b *Buffer) headed() bool {
	return cap(b.front) > headroom && cap(b.data) > 0 && &b.front[:headroom+1][headroom] == &b.data[:1][0]
}

// pooled reports whether the stream lies on an array the process pool may
// exchange: not a foreign or narrowed one.
func (b *Buffer) pooled() bool { return b.home == &pool && b.store == nil }

// grow makes room for n more bytes at a write that knows n. A foreign or
// narrowed stream grows as append would; a pooled one keeps its headroom,
// and one crossing from the small class into the large takes over an idle
// large buffer's array before it allocates another.
func (b *Buffer) grow(n int) {
	if !b.pooled() {
		b.data = slices.Grow(b.data, n)
		return
	}
	need := len(b.data) + n
	if isLarge(need) && !isLarge(cap(b.data)) && b.swapLarge(need) {
		return
	}
	b.alloc(max(need, 2*cap(b.data)))
}

// swapLarge moves the stream onto the array of an idle large buffer with
// room for need bytes and reports whether there was one. The idle buffer
// goes to the small class with the array the stream was on: the ledger does
// not move and no array is allocated or dropped.
func (b *Buffer) swapLarge(need int) bool {
	l := takeLarge(need)
	if l == nil {
		return false
	}
	b.exchange(l)
	pool.Put(l)
	return true
}

// exchange swaps arrays with o, which is empty and has room for the stream,
// carrying the stream across.
func (b *Buffer) exchange(o *Buffer) {
	n := len(b.data)
	copy(o.data[:n], b.data)
	if poison.Load() {
		fill(b.data[:cap(b.data)])
	}
	b.data, o.data = o.data[:n], b.data[:0]
	b.front, o.front = o.front, b.front
}

// Put is the one way to dispose of a buffer, whatever produced it. The
// caller must own b exclusively and must not use it afterwards; unconsumed
// door references are dropped, not released, so release them first (see
// kernel.ReleaseBufferDoors). What happens next follows from how b was
// obtained, not from which call site holds it: a pooled buffer is reset
// and returned to the pool that handed it out with its whole storage — the
// process pool files it in the size class of the capacity it has now — and
// everything else — New, FromParts, the zero value, a buffer Put twice, nil
// — is left to the collector untouched, so storage the pool does not own
// can never enter it.
func Put(b *Buffer) {
	if b == nil {
		return
	}
	h := b.home
	if h == nil {
		ledger.drops.Add(1)
		return
	}
	b.home = nil
	b.Reset()
	if h == &pool {
		ledger.puts.Add(1)
		switch {
		case cap(b.data) > maxPooledCap:
			b.data, b.front = nil, nil
		case !b.headed() && cap(b.data) > headroom:
			// An append left the stream on an array without headroom:
			// give it one.
			b.front, b.data = b.data, b.data[headroom:headroom]
		}
	}
	if poison.Load() {
		fill(b.data[:cap(b.data)])
	}
	if h != &pool || !isLarge(cap(b.data)) {
		h.Put(b)
		return
	}
	large.mu.Lock()
	large.idle = append(large.idle, b)
	large.mu.Unlock()
}

// poison makes Put overwrite storage as it returns to a pool.
var poison atomic.Bool

// PoisonRecycled is a test hook (see sctest.PoisonRecycled): while on, every byte of
// storage that returns to a pool is overwritten with 0xDB, so code that
// keeps reading a buffer it gave up — a skeleton retaining argument bytes
// past its dispatch, a stub retaining result bytes — reads garbage at
// once instead of whenever the pool happens to reuse the array.
func PoisonRecycled(on bool) { poison.Store(on) }

func fill(p []byte) {
	if len(p) == 0 {
		return
	}
	p[0] = 0xDB
	for n := 1; n < len(p); n *= 2 { // doubling copies: a few memmoves, not a byte loop
		copy(p[n:], p[:n])
	}
}

// FromParts reconstructs a buffer from a byte stream and a door slice, as
// produced by Bytes and Doors on the sending side. The slices are adopted,
// not copied, and stay the caller's: Put never recycles them.
func FromParts(data []byte, doors []Door) *Buffer {
	return &Buffer{data: data, doors: doors}
}

// Bytes returns the full byte stream written so far.
func (b *Buffer) Bytes() []byte { return b.data }

// Doors returns the out-of-band door slice. Consumed slots are nil.
func (b *Buffer) Doors() []Door { return b.doors }

// Len reports the number of unread bytes.
func (b *Buffer) Len() int { return len(b.data) - b.rpos }

// Size reports the total number of bytes written.
func (b *Buffer) Size() int { return len(b.data) }

// DoorCount reports the number of door slots (consumed or not).
func (b *Buffer) DoorCount() int { return len(b.doors) }

// Reset empties the buffer for reuse, retaining allocated capacity.
// Any unconsumed door references are dropped; the caller is responsible for
// releasing them first (see kernel.ReleaseBufferDoors). A narrowed stream
// widens back to the whole storage.
func (b *Buffer) Reset() {
	if b.store != nil {
		b.data, b.store = b.store, nil
	}
	b.data = b.data[:0]
	b.rpos = 0
	clear(b.doors) // don't let a recycled buffer pin dropped references
	b.doors = b.doors[:0]
	b.dcursor = 0
}

// Rewind moves the read position back to the start of the stream. Door
// slots consumed before the rewind stay consumed (their references were
// adopted elsewhere); re-reading one yields ErrDoorTaken.
func (b *Buffer) Rewind() {
	b.rpos = 0
	b.dcursor = 0
}

// WriteUint32 appends v in little-endian order.
func (b *Buffer) WriteUint32(v uint32) {
	b.data = binary.LittleEndian.AppendUint32(b.data, v)
}

// WriteUint64 appends v in little-endian order.
func (b *Buffer) WriteUint64(v uint64) {
	b.data = binary.LittleEndian.AppendUint64(b.data, v)
}

// WriteInt32 appends v in little-endian order.
func (b *Buffer) WriteInt32(v int32) { b.WriteUint32(uint32(v)) }

// WriteInt64 appends v in little-endian order.
func (b *Buffer) WriteInt64(v int64) { b.WriteUint64(uint64(v)) }

// WriteUvarint appends v in unsigned varint encoding.
func (b *Buffer) WriteUvarint(v uint64) {
	b.data = binary.AppendUvarint(b.data, v)
}

// WriteVarint appends v in signed varint encoding.
func (b *Buffer) WriteVarint(v int64) {
	b.data = binary.AppendVarint(b.data, v)
}

// WriteBool appends a single 0/1 byte.
func (b *Buffer) WriteBool(v bool) {
	if v {
		b.data = append(b.data, 1)
	} else {
		b.data = append(b.data, 0)
	}
}

// WriteByte appends a single byte. It always returns nil, satisfying
// io.ByteWriter.
func (b *Buffer) WriteByte(v byte) error {
	b.data = append(b.data, v)
	return nil
}

// WriteFloat64 appends v as an IEEE-754 bit pattern.
func (b *Buffer) WriteFloat64(v float64) {
	b.WriteUint64(math.Float64bits(v))
}

// WriteFloat32 appends v as an IEEE-754 bit pattern.
func (b *Buffer) WriteFloat32(v float32) {
	b.WriteUint32(math.Float32bits(v))
}

// WriteString appends a length-prefixed string. It always succeeds; the
// return values satisfy io.StringWriter.
func (b *Buffer) WriteString(s string) (int, error) {
	b.WriteUvarint(uint64(len(s)))
	b.data = append(b.data, s...)
	return len(s), nil
}

// WriteBytes appends a length-prefixed byte sequence.
func (b *Buffer) WriteBytes(p []byte) {
	b.WriteUvarint(uint64(len(p)))
	b.WriteRaw(p)
}

// bytesPrefixLen is the width of the length prefix ReserveBytes leaves room
// for: a uvarint padded with continuation bytes to a fixed five (lengths
// below 2^35), which ReadUvarint decodes like WriteBytes' minimal form.
const bytesPrefixLen = 5

// ReserveBytes starts a length-prefixed byte sequence produced in place
// rather than copied in: it makes room for the prefix and returns the empty
// tail of the storage behind it for the producer to append to. The stream
// is unchanged until CommitBytes, so a producer that fails simply leaves;
// nothing may be written to the buffer in between. The buffer cannot see
// how much the producer will append, so a small pooled one moves onto an
// idle large array while there is one: a payload then lands in place, and
// CommitBytes hands the array back at once if the result turned out small.
func (b *Buffer) ReserveBytes() []byte {
	if b.pooled() && !isLarge(cap(b.data)) {
		b.swapLarge(len(b.data) + bytesPrefixLen)
	}
	return b.reserve()
}

func (b *Buffer) reserve() []byte {
	body := len(b.data) + bytesPrefixLen
	if cap(b.data) < body {
		b.grow(bytesPrefixLen)
	}
	return b.data[body:body:cap(b.data)]
}

// CommitBytes ends the sequence ReserveBytes started with p, whatever the
// producer returned, as its content: appended within the reserved tail, p
// is adopted where it lies; grown onto an array of its own, or unrelated to
// the tail, it is copied in. Then the prefix is patched to len(p). The
// caller is done with p: the array under it may be another buffer's next.
func (b *Buffer) CommitBytes(p []byte) {
	if uint64(len(p)) >= 1<<(7*bytesPrefixLen) {
		panic("buffer: byte sequence too long for its length prefix")
	}
	tail := b.reserve()
	body := len(b.data) + bytesPrefixLen
	if cap(p) > 0 && cap(tail) >= len(p) && &p[:1][0] == &tail[:1][0] {
		b.data = b.data[:body+len(p)]
	} else {
		if cap(tail) < len(p) {
			if isLarge(len(p)) {
				ledger.largeAllocs.Add(1) // the producer found no room and made its own
			}
			b.grow(bytesPrefixLen + len(p))
		}
		b.data = append(b.data[:body], p...)
	}
	n := uint64(len(p))
	for i := body - bytesPrefixLen; i < body-1; i++ {
		b.data[i] = byte(n) | 0x80
		n >>= 7
	}
	b.data[body-1] = byte(n)
	if need := len(b.data) + headroom; b.pooled() && isLarge(cap(b.data)) && !isLarge(need) {
		// A small result on a large array: move to a small buffer's, so
		// the large one is idle again before this buffer reaches a socket.
		s := Get(need)
		b.exchange(s)
		Put(s)
	}
}

// Spent says the stream is dead before the buffer is Put (a request whose
// arguments are consumed): as in CommitBytes' exchange, a pooled buffer on a
// large array moves onto an empty small one, the large one idle at once.
func (b *Buffer) Spent() {
	if b == nil || b.home != &pool || !b.Large() {
		return
	}
	if b.store != nil {
		b.data, b.store = b.store, nil
	}
	s := Get(0)
	b.data, s.data, b.rpos = s.data[:0], b.data[:0], 0
	b.front, s.front = s.front, b.front
	Put(s)
}

// WriteRaw appends p with no length prefix.
func (b *Buffer) WriteRaw(p []byte) {
	if cap(b.data)-len(b.data) < len(p) {
		b.grow(len(p))
	}
	b.data = append(b.data, p...)
}

// WriteDoor records d out-of-band and splices a door tag into the byte
// stream. Doors are consumed in the order they were written.
func (b *Buffer) WriteDoor(d Door) {
	b.WriteUvarint(doorTag)
	b.doors = append(b.doors, d)
}

// AppendDoor records d out-of-band without splicing a tag: the receiving
// half of a transfer, whose byte stream already carries the tags WriteDoor
// spliced on the sending side.
func (b *Buffer) AppendDoor(d Door) {
	b.doors = append(b.doors, d)
}

// ReadFull appends exactly n bytes read from r to the stream. On a short
// read the stream is left as it was.
func (b *Buffer) ReadFull(r io.Reader, n int) error {
	at := len(b.data)
	if cap(b.data)-at < n {
		b.grow(n)
	}
	b.data = b.data[:at+n]
	if _, err := io.ReadFull(r, b.data[at:]); err != nil {
		b.data = b.data[:at]
		return err
	}
	return nil
}

// ReadUint32 consumes and returns a little-endian uint32.
func (b *Buffer) ReadUint32() (uint32, error) {
	if b.Len() < 4 {
		return 0, ErrUnderflow
	}
	v := binary.LittleEndian.Uint32(b.data[b.rpos:])
	b.rpos += 4
	return v, nil
}

// PeekUint32 returns the next uint32 without consuming it. Subcontract
// unmarshal code uses this to take a peek at the expected subcontract
// identifier before deciding whether to dispatch to another subcontract.
func (b *Buffer) PeekUint32() (uint32, error) {
	if b.Len() < 4 {
		return 0, ErrUnderflow
	}
	return binary.LittleEndian.Uint32(b.data[b.rpos:]), nil
}

// ReadUint64 consumes and returns a little-endian uint64.
func (b *Buffer) ReadUint64() (uint64, error) {
	if b.Len() < 8 {
		return 0, ErrUnderflow
	}
	v := binary.LittleEndian.Uint64(b.data[b.rpos:])
	b.rpos += 8
	return v, nil
}

// ReadInt32 consumes and returns a little-endian int32.
func (b *Buffer) ReadInt32() (int32, error) {
	v, err := b.ReadUint32()
	return int32(v), err
}

// ReadInt64 consumes and returns a little-endian int64.
func (b *Buffer) ReadInt64() (int64, error) {
	v, err := b.ReadUint64()
	return int64(v), err
}

// ReadUvarint consumes and returns an unsigned varint.
func (b *Buffer) ReadUvarint() (uint64, error) {
	v, n := binary.Uvarint(b.data[b.rpos:])
	if n <= 0 {
		return 0, ErrUnderflow
	}
	b.rpos += n
	return v, nil
}

// ReadCount consumes an element count, refusing with ErrBadCount one
// larger than what remains to hold the elements: a byte each, and for
// doors a door slot each. A decoder sizes its allocation by the count only
// through this check, so a few bytes off the wire cannot claim gigabytes.
func (b *Buffer) ReadCount(doors bool) (int, error) {
	n, err := b.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(b.Len()) || doors && n > uint64(len(b.doors)-b.dcursor) {
		return 0, ErrBadCount
	}
	return int(n), nil
}

// ReadVarint consumes and returns a signed varint.
func (b *Buffer) ReadVarint() (int64, error) {
	v, n := binary.Varint(b.data[b.rpos:])
	if n <= 0 {
		return 0, ErrUnderflow
	}
	b.rpos += n
	return v, nil
}

// ReadBool consumes and returns a boolean.
func (b *Buffer) ReadBool() (bool, error) {
	if b.Len() < 1 {
		return false, ErrUnderflow
	}
	v := b.data[b.rpos] != 0
	b.rpos++
	return v, nil
}

// ReadByte consumes and returns one byte, satisfying io.ByteReader.
func (b *Buffer) ReadByte() (byte, error) {
	if b.Len() < 1 {
		return 0, ErrUnderflow
	}
	v := b.data[b.rpos]
	b.rpos++
	return v, nil
}

// ReadFloat64 consumes and returns an IEEE-754 double.
func (b *Buffer) ReadFloat64() (float64, error) {
	v, err := b.ReadUint64()
	return math.Float64frombits(v), err
}

// ReadFloat32 consumes and returns an IEEE-754 single.
func (b *Buffer) ReadFloat32() (float32, error) {
	v, err := b.ReadUint32()
	return math.Float32frombits(v), err
}

// ReadString consumes and returns a length-prefixed string.
func (b *Buffer) ReadString() (string, error) {
	n, err := b.ReadUvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(b.Len()) {
		return "", ErrBadString
	}
	s := string(b.data[b.rpos : b.rpos+int(n)])
	b.rpos += int(n)
	return s, nil
}

// ReadBytes consumes and returns a length-prefixed byte sequence. The
// returned slice aliases the buffer's storage.
func (b *Buffer) ReadBytes() ([]byte, error) {
	n, err := b.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(b.Len()) {
		return nil, ErrBadString
	}
	p := b.data[b.rpos : b.rpos+int(n) : b.rpos+int(n)]
	b.rpos += int(n)
	return p, nil
}

// ReadRaw consumes exactly n bytes with no length prefix.
func (b *Buffer) ReadRaw(n int) ([]byte, error) {
	if n < 0 || n > b.Len() {
		return nil, ErrUnderflow
	}
	p := b.data[b.rpos : b.rpos+n : b.rpos+n]
	b.rpos += n
	return p, nil
}

// ReadDoor consumes a door tag from the byte stream and returns the next
// unconsumed door reference, clearing its slot so the reference cannot be
// adopted twice (re-reading after Rewind fails with ErrDoorTaken).
func (b *Buffer) ReadDoor() (Door, error) {
	tag, err := b.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if tag != doorTag {
		return nil, ErrBadDoor
	}
	if b.dcursor >= len(b.doors) {
		return nil, ErrBadDoor
	}
	d := b.doors[b.dcursor]
	if d == nil {
		b.dcursor++
		return nil, ErrDoorTaken
	}
	b.doors[b.dcursor] = nil
	b.dcursor++
	return d, nil
}

// Splice appends other's byte stream and door references to b. Because
// doors are consumed in FIFO order, reading the combined stream pairs each
// door tag with the right reference. other must not be used afterwards.
func (b *Buffer) Splice(other *Buffer) {
	b.data = append(b.data, other.data...)
	b.doors = append(b.doors, other.doors...)
}

// Prepend extends the stream n bytes to the front, over the headroom, and
// returns them for the caller to fill: a frame header lands in front of a
// marshalled payload and the payload does not move. It returns nil, the
// stream untouched, when those bytes are not the buffer's to write — n
// exceeds the headroom, or the stream is not where Get put it (a New or
// FromParts buffer, a narrowed one, one an append moved) —
// or when fewer than tail bytes are free behind the stream, so that what
// the caller appends next would move it after all. Like Narrow it is
// undone by Reset and Put.
func (b *Buffer) Prepend(n, tail int) []byte {
	if n > headroom || cap(b.data)-len(b.data) < tail || b.store != nil || !b.headed() {
		return nil
	}
	b.store = b.data
	b.data = b.front[headroom-n : headroom+len(b.data)]
	return b.data[:n]
}

// Narrow re-scopes the stream, in place, to the n bytes at offset off — a
// payload carried inside a frame becomes the whole stream, read position
// at its start. The buffer keeps owning the full storage (Reset and Put
// restore it), and the window's capacity is clipped, so appending to it
// reallocates rather than writing over what follows in the frame.
func (b *Buffer) Narrow(off, n int) {
	if b.store == nil {
		b.store = b.data
	}
	b.data = b.data[off : off+n : off+n]
	b.rpos = 0
}

// A Mark captures a buffer's write position, so a speculative section —
// bytes and door references — can be rolled back with Truncate.
type Mark struct {
	nbytes int
	ndoors int
}

// Mark returns the current end-of-stream position.
func (b *Buffer) Mark() Mark { return Mark{nbytes: len(b.data), ndoors: len(b.doors)} }

// Truncate discards everything written after m, returning the unconsumed
// door references removed so the caller can release them. Read positions
// past the mark are pulled back to it.
func (b *Buffer) Truncate(m Mark) []Door {
	var removed []Door
	if m.ndoors < len(b.doors) {
		for _, d := range b.doors[m.ndoors:] {
			if d != nil {
				removed = append(removed, d)
			}
		}
		clear(b.doors[m.ndoors:])
		b.doors = b.doors[:m.ndoors]
	}
	if m.nbytes < len(b.data) {
		b.data = b.data[:m.nbytes]
	}
	if b.rpos > m.nbytes {
		b.rpos = m.nbytes
	}
	if b.dcursor > m.ndoors {
		b.dcursor = m.ndoors
	}
	return removed
}

// TakeDoors removes and returns all remaining (unconsumed) door references,
// clearing their slots. The network door servers use this when re-homing a
// buffer's doors onto the wire.
func (b *Buffer) TakeDoors() []Door {
	var out []Door
	for i, d := range b.doors {
		if d != nil {
			out = append(out, d)
			b.doors[i] = nil
		}
	}
	return out
}

// ReplaceDoors substitutes the door slice wholesale, preserving positional
// indices already spliced into the byte stream. It is used when importing a
// buffer whose doors were translated to proxy doors.
func (b *Buffer) ReplaceDoors(doors []Door) error {
	if len(doors) != len(b.doors) {
		return fmt.Errorf("buffer: door count mismatch: have %d slots, got %d doors", len(b.doors), len(doors))
	}
	b.doors = doors
	return nil
}

// String implements fmt.Stringer for debugging.
func (b *Buffer) String() string {
	return fmt.Sprintf("Buffer{%d bytes, rpos %d, %d doors}", len(b.data), b.rpos, len(b.doors))
}
