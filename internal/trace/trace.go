// Package trace is the distributed-tracing substrate: per-hop spans keyed
// by the trace identity that kernel.Info threads from client stubs through
// subcontracts, doors and the netd wire to server skeletons.
//
// The paper's argument is that the subcontract owns the invocation path —
// which means the subcontract layer, not the application, is where the
// path must be made observable (PAPERS.md: RAFDA; the ODP channel-objects
// model). A traced call carries three identifiers in its invocation
// context: the trace ID naming the end-to-end call tree, the current span
// ID, and that span's parent. Each instrumented hop (subcontract invoke,
// netd send/serve, server skeleton, cache hit/miss) brackets its work with
// Begin/End, which pushes a fresh span ID into the context so nested hops
// become children, and restores the previous identity on the way out.
// Instantaneous happenings (a failover, a cache hit) are zero-duration
// Events parented at whatever span is current.
//
// The design is dictated by the same hot-path budget as scstats (≤30 ns
// over the bare E14 call, +0 allocs when untraced):
//
//   - An untraced call pays exactly one atomic load and a branch, in
//     core.NewCall's head-sampling check. Begin/End/Event on an untraced
//     context are an inlineable nil-or-zero test.
//   - Span names are interned once (package var or a lazily cached field),
//     so recording stores a uint32, never a string.
//   - Completed spans land in a fixed-size sharded ring of seqlock slots
//     whose every field is an atomic — writers never block, readers detect
//     torn slots by sequence mismatch and skip them, and the race detector
//     sees only atomics. Recording is ~10 plain atomic stores; a sampled
//     span allocates at most twice (error-text formatting).
//   - Sampling is head-based: the decision is made once per call tree at
//     the outermost core.NewCall (MaybeHead), so a trace is either
//     recorded at every hop on every machine it touches or costs nothing
//     anywhere. -trace-sample 1 traces everything; 0 disables.
//
// The ring holds the most recent spans (default 8192); a long-running
// process overwrites its history, which is the intended trade — the
// telemetry plane (internal/telemetry) serves "recent traces", not an
// archive.
package trace

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
)

// NameID is an interned span name. 0 is reserved for "unnamed"; Name never
// returns it.
type NameID uint32

// nameTable is the append-only interning table: the slice is republished
// whole on every insert, so nameOf is a single atomic load + index.
var nameTable struct {
	mu     sync.Mutex
	byName map[string]NameID
	list   atomic.Pointer[[]string] // index id-1 → name
}

// Name interns a span name, returning its ID. Callers cache the result
// (package var, or an atomic field for names not known until runtime) so
// the record path never touches the table.
func Name(s string) NameID {
	nameTable.mu.Lock()
	defer nameTable.mu.Unlock()
	if id, ok := nameTable.byName[s]; ok {
		return id
	}
	return internLocked(s)
}

func internLocked(s string) NameID {
	if nameTable.byName == nil {
		nameTable.byName = make(map[string]NameID)
	}
	old := nameTable.list.Load()
	var next []string
	if old != nil {
		next = append(append(make([]string, 0, len(*old)+1), *old...), s)
	} else {
		next = []string{s}
	}
	id := NameID(len(next))
	nameTable.byName[s] = id
	nameTable.list.Store(&next)
	return id
}

// nameOf resolves an interned ID back to its string ("" for 0 or unknown).
func nameOf(id NameID) string {
	if id == 0 {
		return ""
	}
	lp := nameTable.list.Load()
	if lp == nil || int(id) > len(*lp) {
		return ""
	}
	return (*lp)[id-1]
}

// ---------------------------------------------------------------------
// Identity generation and head-based sampling.

// spanIDs is the process-wide span-ID counter, seeded randomly so span IDs
// from different processes in one distributed trace cannot collide.
var spanIDs atomic.Uint64

func init() { spanIDs.Store(rand.Uint64()) }

func nextSpanID() uint64 {
	id := spanIDs.Add(1)
	if id == 0 { // wrapped over the reserved "no span" value
		id = spanIDs.Add(1)
	}
	return id
}

// NewTraceID returns a fresh nonzero random trace identifier.
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// sampling is the head-sampling period: 0 = tracing off, 1 = every call,
// n = 1-in-n calls. headCount is the sampling clock.
var (
	sampling  atomic.Int32
	headCount atomic.Uint64
)

// SetSampling sets the head-sampling period for MaybeHead: every ≤ 0
// disables tracing, 1 traces every outermost call, n traces 1 in n. This
// is the programmatic form of the daemons' -trace-sample flag.
func SetSampling(every int) {
	if every < 0 {
		every = 0
	}
	if every > 1<<30 {
		every = 1 << 30
	}
	sampling.Store(int32(every))
}

// SamplingEvery returns the current head-sampling period (0 = off).
func SamplingEvery() int { return int(sampling.Load()) }

// MaybeHead makes the head-based sampling decision for an outermost,
// as-yet-untraced call: it returns a fresh trace ID when the call is
// sampled and 0 otherwise. With sampling off it is one atomic load and a
// branch — this is the only cost tracing adds to an untraced call.
func MaybeHead() uint64 {
	every := sampling.Load()
	if every == 0 {
		return 0
	}
	if every > 1 && headCount.Add(1)%uint64(every) != 0 {
		return 0
	}
	return NewTraceID()
}

// ---------------------------------------------------------------------
// Span bracketing.

// Span is the in-flight state between Begin and End. It is a value; the
// zero Span (untraced) makes End a no-op.
type Span struct {
	// TraceID and ID name this span; Parent is the span it nests under
	// (0 for a root).
	TraceID uint64
	ID      uint64
	Parent  uint64

	prevParent uint64 // info.Parent before Begin, restored by End
	start      int64  // UnixNano
	name       NameID
}

// Begin opens a span over the traced work that follows: it mints a span
// ID, records it in info (so nested hops — including ones on the far side
// of a netd wire — become children), and returns the state End needs. On
// an untraced info it returns the zero Span and touches nothing.
func Begin(info *kernel.Info, name NameID) Span {
	if info == nil || info.Trace == 0 {
		return Span{}
	}
	id := nextSpanID()
	sp := Span{
		TraceID:    info.Trace,
		ID:         id,
		Parent:     info.Span,
		prevParent: info.Parent,
		start:      time.Now().UnixNano(),
		name:       name,
	}
	info.Parent = info.Span
	info.Span = id
	return sp
}

// End closes the span, restores info's span identity to its pre-Begin
// state, and records the completed span (with err's text, if any) in the
// ring. A zero Span is a no-op. info may be nil when the context is no
// longer live (the record is still emitted).
func (sp Span) End(info *kernel.Info, err error) {
	if sp.ID == 0 {
		return
	}
	if info != nil {
		info.Span = sp.Parent
		info.Parent = sp.prevParent
	}
	var errText string
	if err != nil {
		errText = err.Error()
	}
	dur := rec().emit(sp.TraceID, sp.ID, sp.Parent, sp.name, sp.start, errText)
	// A root that ran slow is copied to the slow ring (slow.go).
	if sp.Parent == 0 && isSlow(dur) {
		commitSampledSlow(sp.TraceID, sp.start)
	}
}

// Event records an instantaneous zero-duration span (a failover, a cache
// hit) parented at info's current span. Untraced infos cost a nil test.
func Event(info *kernel.Info, name NameID) {
	if info == nil || info.Trace == 0 {
		return
	}
	rec().emit(info.Trace, nextSpanID(), info.Span, name, 0, "")
}

// ---------------------------------------------------------------------
// The recorder: a sharded ring of seqlock slots, every field atomic.

const (
	// shardBits spreads concurrent writers (slots are claimed per shard by
	// span ID, so two goroutines recording different spans rarely contend
	// on one position counter).
	shardBits = 3
	nShards   = 1 << shardBits

	// errBytes bounds the error text stored per slot (errWords uint64s).
	errWords = 8
	errBytes = errWords * 8

	// defaultCapacity is the total slot count across shards (power of two
	// per shard). ~128 B/slot → ~1 MiB resident once tracing is used.
	defaultCapacity = 8192
)

// slot is one ring entry. The seqlock protocol: a writer bumps seq to odd,
// stores the fields, bumps seq to even; a reader snapshots seq, loads the
// fields, and accepts them only if seq is unchanged, even, and nonzero
// (zero = never written). Every access is atomic, so concurrent
// writer/writer and writer/reader overlaps are detected by sequence
// mismatch rather than manifesting as data races.
type slot struct {
	seq     atomic.Uint32
	traceID atomic.Uint64
	spanID  atomic.Uint64
	parent  atomic.Uint64
	start   atomic.Int64  // UnixNano
	dur     atomic.Int64  // nanoseconds (0 for events)
	meta    atomic.Uint64 // name<<32 | errLen
	errText [errWords]atomic.Uint64
}

// record is a slot's content as plain values: what a writer stores and a
// reader loads.
type record struct {
	traceID, spanID, parent uint64
	start, dur              int64
	meta                    uint64
	errText                 [errWords]uint64
}

type shard struct {
	pos atomic.Uint64
	_   [56]byte // keep neighbouring shards' counters off this cache line
}

type recorder struct {
	shards [nShards]shard
	// slots[s] is shard s's ring; len is a power of two.
	slots [nShards][]slot
	mask  uint64
}

func newRecorder(capacity int) *recorder {
	per := capacity / nShards
	if per < 64 {
		per = 64
	}
	// Round up to a power of two so the ring index is a mask.
	n := 64
	for n < per {
		n <<= 1
	}
	r := &recorder{mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i] = make([]slot, n)
	}
	return r
}

var (
	recPtr atomic.Pointer[recorder]
	recMu  sync.Mutex
)

// rec returns the process recorder, installing it on first use so
// processes that never trace never pay the ring's memory.
func rec() *recorder {
	if r := recPtr.Load(); r != nil {
		return r
	}
	recMu.Lock()
	defer recMu.Unlock()
	if r := recPtr.Load(); r != nil {
		return r
	}
	r := newRecorder(defaultCapacity)
	recPtr.Store(r)
	return r
}

// Reset discards all recorded spans — main ring and slow ring — for
// tests. Configured thresholds and sampling survive.
func Reset() {
	recMu.Lock()
	recPtr.Store(nil)
	recMu.Unlock()
	slowRecMu.Lock()
	slowRecPtr.Store(nil)
	slowRecMu.Unlock()
}

// claim returns the next slot of the span's shard.
func (r *recorder) claim(spanID uint64) *slot {
	si := spanID & (nShards - 1)
	return &r.slots[si][(r.shards[si].pos.Add(1)-1)&r.mask]
}

// emit claims a slot, takes the time the span ends and publishes the
// record; start 0 records an event, of zero duration at that time. It
// returns the duration. The time is taken after the claim, so a slot
// claimed later in a shard never ended before one claimed earlier began
// its End: commitSampledSlow relies on it. No allocation.
func (r *recorder) emit(traceID, spanID, parentID uint64, name NameID, start int64, errText string) int64 {
	s := r.claim(spanID)
	end := time.Now().UnixNano()
	if start == 0 {
		start = end
	}
	n := min(len(errText), errBytes)
	v := record{traceID: traceID, spanID: spanID, parent: parentID, start: start, dur: end - start,
		meta: uint64(name)<<32 | uint64(n)}
	for i := 0; i < n; i++ {
		v.errText[i>>3] |= uint64(errText[i]) << ((i & 7) * 8)
	}
	s.store(&v)
	return v.dur
}

// store publishes v under the slot's sequence.
func (s *slot) store(v *record) {
	s.seq.Add(1) // odd: slot unstable
	s.traceID.Store(v.traceID)
	s.spanID.Store(v.spanID)
	s.parent.Store(v.parent)
	s.start.Store(v.start)
	s.dur.Store(v.dur)
	s.meta.Store(v.meta)
	for i := range v.errText {
		s.errText[i].Store(v.errText[i])
	}
	s.seq.Add(1) // even: slot stable
}

// load snapshots the slot and the sequence it was stable at; seq is 0 for
// a never-written or torn slot.
func (s *slot) load() (v record, seq uint32) {
	for tries := 0; tries < 4; tries++ {
		seq = s.seq.Load()
		if seq == 0 || seq&1 != 0 {
			return record{}, 0
		}
		v = record{traceID: s.traceID.Load(), spanID: s.spanID.Load(), parent: s.parent.Load(),
			start: s.start.Load(), dur: s.dur.Load(), meta: s.meta.Load()}
		for i := range v.errText {
			v.errText[i] = s.errText[i].Load()
		}
		if s.seq.Load() == seq {
			return v, seq
		}
		// overwritten mid-read; retry
	}
	return record{}, 0
}

// read snapshots one slot as a span. ok is false for never-written or
// torn slots.
func (s *slot) read() (sd SpanData, ok bool) {
	v, seq := s.load()
	if seq == 0 {
		return SpanData{}, false
	}
	sd = SpanData{TraceID: v.traceID, SpanID: v.spanID, ParentID: v.parent, Start: v.start,
		Duration: v.dur, Name: nameOf(NameID(v.meta >> 32))}
	if n := int(v.meta & 0xffffffff); n > 0 {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(v.errText[i>>3] >> ((i & 7) * 8))
		}
		sd.Err = string(b)
	}
	return sd, true
}
