package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// The slow ring: recent head-sampled calls that ran slow.
//
// A head-sampled root span whose duration meets the slow threshold has its
// spans copied from the main ring into a dedicated slow-span ring when it
// ends. The slow ring is separate from the main ring so a flood of
// ordinary traced calls cannot overwrite the evidence of yesterday's slow
// call — "recent slow calls" decay only as new slow calls arrive. A call
// head sampling declined is recorded nowhere, slow or not.

// slowDefault is the slow threshold in ns; 0 means no root is slow.
var slowDefault atomic.Int64

// SetSlowDefault sets the slow threshold applied to every head-sampled
// root span; ≤ 0 turns slow-root copying off. This is the programmatic
// form of the daemons' -trace-slow flag.
func SetSlowDefault(d time.Duration) {
	slowDefault.Store(max(int64(d), 0))
}

// isSlow reports whether a root span that ran dur ns meets the threshold.
func isSlow(dur int64) bool {
	thr := slowDefault.Load()
	return thr > 0 && dur >= thr
}

// commitSampledSlow copies a head-sampled slow trace whose root began at
// start from the main ring into the slow ring, slot to slot (called at
// the root span's End once its duration is known). Every span of the trace
// ended after the root began, and a shard's slots end in claim order
// (emit), so each shard is read back from its newest slot only until one
// that ended before start. A slot whose sequence is not its lap's (claimed
// and not yet written, or torn) is passed over, not taken for the end.
func commitSampledSlow(traceID uint64, start int64) {
	r, slow := rec(), slowRec()
	n := r.mask + 1
	for si := range r.slots {
		pos := r.shards[si].pos.Load()
		for p := pos; p > 0 && pos-p < n; p-- {
			v, seq := r.slots[si][(p-1)&r.mask].load()
			if seq != uint32(2*((p-1)/n+1)) {
				continue
			}
			if v.start+v.dur < start {
				break
			}
			if v.traceID == traceID {
				slow.claim(v.spanID).store(&v)
			}
		}
	}
}

// slowCapacity is the slow ring's slot count, a second, smaller seqlock
// recorder with the same slot format as the main ring.
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
