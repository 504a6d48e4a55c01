package dispatch

import (
	"sync/atomic"
	"time"

	"repro/internal/scstats"
)

// inline_hits and shed are counted by the netd serve path, which makes
// those decisions, so every server shares one exposition.
var (
	gInlineHits = scstats.GaugeFor("dispatch.inline_hits")
	gShed       = scstats.GaugeFor("dispatch.shed")
)

// NoteInline records one call served on the inline fast path (executed
// directly on a reader goroutine).
func NoteInline() { gInlineHits.Add(1) }

// NoteShed records one call refused at admission and answered with a
// retryable overload error.
func NoteShed() { gShed.Add(1) }

// NoteQueued stamps a call that was admitted but not run inline: the netd
// serve path gives it a goroutine of its own and hands the stamp to
// NoteStarted once that goroutine runs, so dispatch.queue_delay prices
// admission → handler start for every call off the inline path, whether an
// engine's run queue or the Go scheduler's carried it.
func NoteQueued() int64 { return hQueueDelay.Start() }

// NoteStarted records the queue delay of a call stamped by NoteQueued.
func NoteStarted(queued int64) { hQueueDelay.ObserveSince(queued, 0) }

// PromoteStreak is how many consecutive sub-threshold completions a
// handler must show before it is promoted to the inline fast path. One
// slow completion demotes it again, so a handler that turns blocking
// stalls at most one reader batch before losing its promotion.
const PromoteStreak = 8

// InlineState is the adaptive inline-eligibility tracker for one
// exported door. The netd serve path consults it per call: a promoted
// door's calls execute directly on the connection's reader goroutine
// (zero spawn, zero queueing) under the reader's per-batch budget;
// everything else runs on a goroutine of its own, where completion times
// feed back into the state.
//
// The whole state packs into one atomic word — bit 0 is the promotion
// flag, the rest a streak counter — so the per-call read is one load and
// the common promoted-case observation is a no-op.
//
// The zero value is a valid "unknown, not promoted" state. A nil
// *InlineState is never eligible and ignores observations.
type InlineState struct {
	v atomic.Uint32
}

const inlinePromoted = 1

// Eligible reports whether the door's calls may run on the reader.
func (st *InlineState) Eligible() bool {
	return st != nil && st.v.Load()&inlinePromoted != 0
}

// Observe feeds one completion time back: a completion over the
// threshold resets the state (demoting a promoted door — it just proved
// it can block the reader); a fast completion extends the streak and
// promotes after PromoteStreak in a row.
func (st *InlineState) Observe(d, threshold time.Duration) {
	if st == nil {
		return
	}
	for {
		old := st.v.Load()
		var next uint32
		switch {
		case d > threshold:
			if old == 0 {
				return
			}
			next = 0
		case old&inlinePromoted != 0:
			return
		default:
			streak := old>>1 + 1
			if streak >= PromoteStreak {
				next = inlinePromoted
			} else {
				next = streak << 1
			}
		}
		if st.v.CompareAndSwap(old, next) {
			return
		}
	}
}
