// Package dispatch holds the two halves of server-side execution (E20):
// the worker-pool engine under the priority subcontract's executor
// (sched.Executor), and the admission and inline bookkeeping the netd serve
// path shares with it — InlineState, and the counters and queue-delay
// histogram both report through.
//
// The engine replaced a single mutex + heap + sync.Cond that serialized all
// of the priority executor's submissions. Until E25 it also ran every
// incoming network call; netd now gives a call that cannot run inline a
// goroutine of its own, because a pool's workers are held by handlers that
// block (a group commit, a call to another server) and a fixed pool then
// hides the callers' concurrency from whatever they block on. What is left
// for the engine is the work it is right for — short, CPU-bound, ordered by
// priority — on a fixed worker pool over per-shard priority queues:
//
//   - Sharded run queues. Each worker owns one shard (a small
//     priority heap: highest priority first, FIFO within a level, the
//     exact order the old sched executor gave). Submissions distribute
//     round-robin, so the old global heap lock becomes w independent
//     locks each shared by ~1/w of the traffic.
//   - Work stealing. A worker whose own shard is empty scans the
//     others and steals their top item, so a burst landing on one shard
//     never idles the rest of the pool.
//   - Futex-style parking. An idle worker publishes itself in a
//     64-bit parked bitmask and blocks on its own capacity-1 channel.
//     A submitter wakes exactly one parked worker with one atomic CAS
//     plus one non-blocking channel send — no sync.Cond, no broadcast
//     storms, and no lost wakeups (the worker re-checks for queued work
//     after setting its bit; the submitter enqueues before reading the
//     mask; sequential consistency of Go atomics guarantees one side
//     sees the other).
//
// The run queues are unbounded: Submit never sheds. (Bounding load is
// admission's job, in front of whatever submits.)
//
// Close drains: queued work runs to completion before workers exit, so
// an Executor built on the engine keeps the old drain-on-Close contract.
package dispatch

import (
	"errors"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/scstats"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("dispatch: engine closed")

// The engine's operational gauges, exposed through the scstats registry
// (and from there the telemetry plane's /metrics). inline_hits and shed
// are counted by the callers that make those decisions (the netd serve
// path) via NoteInline/NoteShed so every engine shares one exposition.
var (
	gInlineHits  = scstats.GaugeFor("dispatch.inline_hits")
	gQueued      = scstats.GaugeFor("dispatch.queued")
	gStolen      = scstats.GaugeFor("dispatch.stolen")
	gShed        = scstats.GaugeFor("dispatch.shed")
	gWorkersLive = scstats.GaugeFor("dispatch.workers_live")

	// hQueueDelay measures how long admitted work waited to start: in a
	// run queue until a worker picked it up, or — a netd call, see
	// NoteQueued — for the goroutine it was given to be scheduled. The
	// inline fast path never touches it, so the histogram prices exactly
	// the slow path. Exposed as dispatch_queue_delay_seconds.
	hQueueDelay = scstats.HistFor("dispatch.queue_delay")
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

// maxWorkers bounds the pool so a worker fits one bit of the parked
// bitmask. 64 workers of mostly-CPU work is far past the point where
// more parallelism helps this engine's workloads.
const maxWorkers = 64

// Config sizes an engine. The zero value is usable: GOMAXPROCS workers.
type Config struct {
	// Workers is the number of pool workers (and shards). 0 means
	// GOMAXPROCS; the value is clamped to [1, 64].
	Workers int
}

// item is one queued unit of work.
type item struct {
	prio int32
	seq  uint64
	at   int64 // scstats tick at Submit, for the queue-delay histogram
	run  func()
}

// pq is a binary heap of items: highest priority first, FIFO within a
// priority level (seq is engine-wide, so a single-shard engine preserves
// exact submission order per level). The sifts are typed rather than
// container/heap's: that interface boxes every item through `any` on the
// way in and on the way out, two allocations per queued call.
type pq []item

func (q pq) less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}

func (q *pq) push(it item) {
	h := append(*q, it)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *pq) pop() item {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = item{} // the vacated slot must not pin the task
	h = h[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.less(right, child) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	*q = h
	return top
}

// shard is one worker's run queue. The padding keeps neighbouring
// shards' locks off one cache line.
type shard struct {
	mu sync.Mutex
	q  pq
	_  [40]byte
}

// Engine is a sharded worker pool. All methods are safe for concurrent
// use.
type Engine struct {
	shards []shard
	wake   []chan struct{} // per-worker, capacity 1

	parked  atomic.Uint64 // bitmask: worker i is blocked (or about to block)
	queued  atomic.Int64  // items sitting in shards (not running)
	seq     atomic.Uint64 // submission order within a priority level
	rr      atomic.Uint64 // round-robin shard cursor
	stopped atomic.Bool   // gates Submit; workers exit via stop

	stop chan struct{}
	wg   sync.WaitGroup
}

// New starts an engine.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	e := &Engine{
		shards: make([]shard, w),
		wake:   make([]chan struct{}, w),
		stop:   make(chan struct{}),
	}
	for i := range e.wake {
		e.wake[i] = make(chan struct{}, 1)
	}
	gWorkersLive.Add(int64(w))
	e.wg.Add(w)
	for i := 0; i < w; i++ {
		go e.worker(i)
	}
	return e
}

// Queued reports the number of items waiting in run queues (not
// running).
func (e *Engine) Queued() int { return int(e.queued.Load()) }

// Submit enqueues fn at the given priority on the next shard in turn. It
// returns ErrClosed after Close; fn is not retained then.
func (e *Engine) Submit(prio int32, fn func()) error {
	seq := e.seq.Add(1)
	si := int((e.rr.Add(1) - 1) % uint64(len(e.shards)))
	sh := &e.shards[si]
	sh.mu.Lock()
	// The closed check lives under the shard lock so Close can barrier on
	// every shard and know no further pushes follow.
	if e.stopped.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	sh.q.push(item{prio: prio, seq: seq, at: hQueueDelay.Start(), run: fn})
	e.queued.Add(1)
	sh.mu.Unlock()
	gQueued.Add(1)
	e.wakeOne(si)
	return nil
}

// poll takes the highest-priority item from worker i's own shard, or
// steals one from another shard when it is empty.
func (e *Engine) poll(i int) (func(), bool) {
	n := len(e.shards)
	for k := 0; k < n; k++ {
		si := i + k
		if si >= n {
			si -= n
		}
		sh := &e.shards[si]
		sh.mu.Lock()
		if len(sh.q) == 0 {
			sh.mu.Unlock()
			continue
		}
		it := sh.q.pop()
		e.queued.Add(-1)
		sh.mu.Unlock()
		gQueued.Add(-1)
		hQueueDelay.ObserveSince(it.at, 0)
		if k > 0 {
			gStolen.Add(1)
		}
		return it.run, true
	}
	return nil, false
}

// wakeOne claims one parked worker (preferring the one that owns shard
// prefer) and hands it a token. A worker's bit is cleared by exactly one
// waker, and a cleared bit always has a token behind it, so wakeups are
// never lost.
func (e *Engine) wakeOne(prefer int) {
	for {
		m := e.parked.Load()
		if m == 0 {
			return // everyone is busy; a worker will poll again when free
		}
		i := prefer
		if m&(uint64(1)<<uint(i)) == 0 {
			i = bits.TrailingZeros64(m)
		}
		bit := uint64(1) << uint(i)
		if e.parked.CompareAndSwap(m, m&^bit) {
			select {
			case e.wake[i] <- struct{}{}:
			default: // a stale token is already pending; it serves
			}
			return
		}
	}
}

// clearParked removes worker i's bit (used on the self-wake paths; a
// waker-cleared bit is left alone — its token is consumed later as a
// harmless spurious wake).
func (e *Engine) clearParked(i int) {
	bit := uint64(1) << uint(i)
	for {
		m := e.parked.Load()
		if m&bit == 0 || e.parked.CompareAndSwap(m, m&^bit) {
			return
		}
	}
}

// park blocks worker i until a submitter wakes it or the engine stops.
// The bit is published before the final work re-check: a submitter that
// misses the bit has already enqueued (so the re-check finds its work),
// and one that sees it will send a token.
func (e *Engine) park(i int) {
	bit := uint64(1) << uint(i)
	for {
		m := e.parked.Load()
		if e.parked.CompareAndSwap(m, m|bit) {
			break
		}
	}
	if e.queued.Load() > 0 {
		e.clearParked(i)
		return
	}
	select {
	case <-e.wake[i]:
		// The waker cleared our bit when it sent the token.
	case <-e.stop:
		e.clearParked(i)
	}
}

// worker is the pool loop: run everything reachable, park when idle,
// exit once the engine has stopped and a full scan comes up empty (stop
// closes only after the submit barrier, so an empty scan is
// conclusive — Close drains).
func (e *Engine) worker(i int) {
	defer e.wg.Done()
	defer gWorkersLive.Add(-1)
	for {
		if run, ok := e.poll(i); ok {
			run()
			continue
		}
		select {
		case <-e.stop:
			if run, ok := e.poll(i); ok {
				run()
				continue
			}
			return
		default:
		}
		e.park(i)
	}
}

// Close stops the engine: further Submits fail with ErrClosed, queued
// work is drained, and Close returns once every worker has exited.
func (e *Engine) Close() {
	if !e.stopped.Swap(true) {
		// Barrier: any Submit that passed the closed check has finished
		// its push once we have cycled its shard lock, so the workers'
		// final scans see everything.
		for i := range e.shards {
			e.shards[i].mu.Lock()
			e.shards[i].mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
		}
		close(e.stop)
	}
	e.wg.Wait()
}
