package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tail capture: catching the slow call head sampling skipped.
//
// Head-based sampling decides at the root whether a call tree is recorded
// — cheap and consistent, but blind by construction: the one call in ten
// thousand that blows its latency budget is almost never in the 1-in-n
// sample. Tail capture closes that hole without giving up head sampling's
// cost model:
//
//   - When tail capture is enabled (a slow threshold is configured) and
//     head sampling declines a call, core.NewCall arms a *speculative*
//     trace (TailArm): the call gets a real trace ID and its spans are
//     recorded normally by the instrumentation — but into a small
//     per-trace buffer on this process, not the main ring, and the trace
//     ID is not propagated over the netd wire (the speculation is a local
//     bet; remote hops stay untraced).
//   - When the root span ends, the bet is settled: if the root's duration
//     meets the slow threshold, the buffered spans are committed into a
//     dedicated slow-span ring; otherwise the buffer is dropped back into
//     a pool and the call cost a few appends.
//   - Head-sampled traces get the same treatment for free: a sampled root
//     that runs slow has its spans copied from the main ring into the
//     slow ring, so /traces/slow is a complete record of recent slow
//     calls regardless of how they were sampled.
//
// The slow ring is separate from the main ring so a flood of ordinary
// traced calls cannot overwrite the evidence of yesterday's tail event —
// "recent slow calls" decay only as new slow calls arrive.

// ---------------------------------------------------------------------
// Slow thresholds.

// slowDefault is the slow threshold in ns; 0 means tail capture is off.
var slowDefault atomic.Int64

// SetSlowDefault sets the slow threshold applied to every root span; ≤ 0
// turns tail capture off. This is the programmatic form of the daemons'
// -trace-slow flag.
func SetSlowDefault(d time.Duration) {
	slowDefault.Store(max(int64(d), 0))
}

// isSlow reports whether a root span that ran dur ns meets the threshold.
func isSlow(dur int64) bool {
	thr := slowDefault.Load()
	return thr > 0 && dur >= thr
}

// TailEnabled reports whether a slow threshold is configured — the
// untraced call path checks it (one atomic load) before paying TailArm.
func TailEnabled() bool { return slowDefault.Load() > 0 }

// ---------------------------------------------------------------------
// Speculative buffers.

const (
	specShardBits = 3
	specNShards   = 1 << specShardBits
	specShardMask = specNShards - 1
	// specShardCap bounds armed traces per shard; beyond it new arms are
	// declined (the call simply goes unobserved, as before tail capture).
	specShardCap = 128
	// specBufCap bounds buffered spans per trace; deeper trees are
	// truncated, keeping the earliest spans (the root's ancestry).
	specBufCap = 64
	// specStaleNs evicts buffers whose root never ended (a call path that
	// leaked its span, or an extremely long call) so they cannot pin the
	// shard forever.
	specStaleNs = int64(60 * time.Second)
)

type specSpan struct {
	spanID uint64
	parent uint64
	name   NameID
	start  int64
	dur    int64
	err    string
}

type specBuf struct {
	armed     int64 // UnixNano at TailArm, for stale eviction
	n         int
	truncated bool
	spans     [specBufCap]specSpan
}

func (b *specBuf) reset(now int64) {
	b.armed = now
	b.n = 0
	b.truncated = false
}

var specBufPool = sync.Pool{New: func() any { return new(specBuf) }}

type specShard struct {
	mu sync.Mutex
	m  map[uint64]*specBuf
}

var specMap [specNShards]specShard

// Tail-capture accounting, exposed through TailStats for the telemetry
// plane.
var (
	specArmed     atomic.Uint64
	specCommitted atomic.Uint64
	specAbandoned atomic.Uint64
	specDeclined  atomic.Uint64 // arms refused (shard full)
)

// TailStatsSnapshot reports tail-capture activity since process start (or
// the last Reset).
type TailStatsSnapshot struct {
	Armed     uint64 // speculative traces started
	Committed uint64 // settled slow and copied to the slow ring
	Abandoned uint64 // settled fast and dropped
	Declined  uint64 // arm refused because the shard was full
}

// TailStats returns the tail-capture counters.
func TailStats() TailStatsSnapshot {
	return TailStatsSnapshot{
		Armed:     specArmed.Load(),
		Committed: specCommitted.Load(),
		Abandoned: specAbandoned.Load(),
		Declined:  specDeclined.Load(),
	}
}

// TailArm starts a speculative trace for a call head sampling declined:
// it returns a fresh trace ID with a buffer armed behind it, or 0 when
// tail capture is off or the shard is full. Callers mark the resulting
// context speculative (kernel.Info.Spec) so the wire layer keeps the
// trace on-process.
func TailArm() uint64 {
	if !TailEnabled() {
		return 0
	}
	id := NewTraceID()
	now := time.Now().UnixNano()
	sh := &specMap[id&specShardMask]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]*specBuf)
	}
	if len(sh.m) >= specShardCap {
		sh.sweepLocked(now)
	}
	if len(sh.m) >= specShardCap {
		sh.mu.Unlock()
		specDeclined.Add(1)
		return 0
	}
	b := specBufPool.Get().(*specBuf)
	b.reset(now)
	sh.m[id] = b
	sh.mu.Unlock()
	specArmed.Add(1)
	return id
}

// sweepLocked evicts stale buffers (armed long ago, root never settled).
func (sh *specShard) sweepLocked(now int64) {
	for id, b := range sh.m {
		if now-b.armed > specStaleNs {
			delete(sh.m, id)
			specBufPool.Put(b)
			specAbandoned.Add(1)
		}
	}
}

// specEmit buffers one completed span of a speculative trace. Spans
// arriving after the buffer settled (or was evicted) are dropped.
func specEmit(traceID, spanID, parent uint64, name NameID, start, dur int64, errText string) {
	sh := &specMap[traceID&specShardMask]
	sh.mu.Lock()
	b := sh.m[traceID]
	if b == nil {
		sh.mu.Unlock()
		return
	}
	if b.n >= specBufCap {
		b.truncated = true
		sh.mu.Unlock()
		return
	}
	b.spans[b.n] = specSpan{spanID: spanID, parent: parent, name: name, start: start, dur: dur, err: errText}
	b.n++
	sh.mu.Unlock()
}

// specFinish settles a speculative trace at its root span's End: commit
// the buffer to the slow ring if the root met its threshold, abandon it
// otherwise.
func specFinish(traceID uint64, rootDur int64) {
	sh := &specMap[traceID&specShardMask]
	sh.mu.Lock()
	b := sh.m[traceID]
	delete(sh.m, traceID)
	sh.mu.Unlock()
	if b == nil {
		return
	}
	if isSlow(rootDur) {
		r := slowRec()
		for i := 0; i < b.n; i++ {
			s := &b.spans[i]
			r.emit(traceID, s.spanID, s.parent, s.name, s.start, s.dur, s.err)
		}
		specCommitted.Add(1)
	} else {
		specAbandoned.Add(1)
	}
	specBufPool.Put(b)
}

// commitSampledSlow copies a head-sampled slow trace from the main ring
// into the slow ring (called at the root span's End once its duration is
// known). The main-ring scan is acceptable because slow calls are, by
// definition, rare.
func commitSampledSlow(traceID uint64) {
	r := slowRec()
	for _, sd := range Collect(traceID) {
		r.emit(sd.TraceID, sd.SpanID, sd.ParentID, Name(sd.Name), sd.Start, sd.Duration, sd.Err)
	}
}

// ---------------------------------------------------------------------
// The slow-span ring: a second, smaller seqlock recorder with the same
// slot format as the main ring.

const slowCapacity = 1024

var (
	slowRecPtr atomic.Pointer[recorder]
	slowRecMu  sync.Mutex
)

func slowRec() *recorder {
	if r := slowRecPtr.Load(); r != nil {
		return r
	}
	slowRecMu.Lock()
	defer slowRecMu.Unlock()
	if r := slowRecPtr.Load(); r != nil {
		return r
	}
	r := newRecorder(slowCapacity)
	slowRecPtr.Store(r)
	return r
}

// SlowCollect returns every slow-ring span of one trace, start-ordered.
func SlowCollect(traceID uint64) []SpanData {
	return collectIn(slowRecPtr.Load(), traceID)
}

// SlowRoots returns the most recent slow root spans, newest first, capped
// at max (≤ 0 means no cap) — the /traces/slow listing.
func SlowRoots(max int) []SpanData {
	return rootsIn(slowRecPtr.Load(), max)
}

// SlowTree assembles one slow trace's spans into parent→child trees, like
// Tree but over the slow ring.
func SlowTree(traceID uint64) []*Node {
	return treeOf(SlowCollect(traceID))
}

// resetTail clears the slow ring, speculative buffers and tail counters
// (thresholds are configuration and survive). Reset calls it.
func resetTail() {
	slowRecMu.Lock()
	slowRecPtr.Store(nil)
	slowRecMu.Unlock()
	for i := range specMap {
		sh := &specMap[i]
		sh.mu.Lock()
		for id, b := range sh.m {
			delete(sh.m, id)
			specBufPool.Put(b)
		}
		sh.mu.Unlock()
	}
	specArmed.Store(0)
	specCommitted.Store(0)
	specAbandoned.Store(0)
	specDeclined.Store(0)
}

// specPending reports armed-but-unsettled speculative traces (tests).
func specPending() int {
	n := 0
	for i := range specMap {
		sh := &specMap[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// sortSpans orders spans by start (ties by span ID), shared with query.go.
func sortSpans(out []SpanData) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SpanID < out[j].SpanID
	})
}
