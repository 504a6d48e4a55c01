// Package dispatch holds the two halves of server-side execution: the
// engine the priority subcontract runs its calls on, and the netd serve
// path's admission and inline bookkeeping (inline.go).
//
// The engine is one mutex, one heap and a fixed pool of workers waiting on
// one condition variable: highest priority first, FIFO within a level, one
// global order whatever the pool's width. The queue is unbounded (bounding
// load is admission's job) and Close drains it before the workers exit.
package dispatch

import (
	"errors"
	"runtime"
	"sync"

	"repro/internal/scstats"
)

// ErrClosed is returned by Submit and Run after Close.
var ErrClosed = errors.New("dispatch: engine closed")

// gQueued counts items in run queues. hQueueDelay (exposed as
// dispatch_queue_delay_seconds) prices how long admitted work waited to
// start: in a run queue, or — a netd call, see NoteQueued — for its own
// goroutine to be scheduled. The inline fast path never touches it.
var (
	gQueued     = scstats.GaugeFor("dispatch.queued")
	hQueueDelay = scstats.HistFor("dispatch.queue_delay")
)

// Config sizes an engine: Workers pool workers, GOMAXPROCS when 0.
type Config struct {
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
// priority level. The sifts are typed rather than container/heap's: that
// interface boxes every item through `any` on the way in and on the way
// out, two allocations per queued call.
type pq []item

func (q pq) less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}

func (q *pq) push(it item) {
	h := append(*q, it)
	for i := len(h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
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
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h.less(c+1, c) {
			c++ // the right child outranks the left
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	*q = h
	return top
}

// Engine is the worker pool. All methods are safe for concurrent use.
type Engine struct {
	mu     sync.Mutex
	work   sync.Cond // signalled on a push, broadcast on Close
	q      pq
	seq    uint64 // submission order within a priority level
	closed bool
	wg     sync.WaitGroup
}

// New starts an engine.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{}
	e.work.L = &e.mu
	e.wg.Add(w)
	for range w {
		go e.worker()
	}
	return e
}

// Submit enqueues fn at prio; after Close it returns ErrClosed, dropping fn.
func (e *Engine) Submit(prio int32, fn func()) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.seq++
	e.q.push(item{prio: prio, seq: e.seq, at: hQueueDelay.Start(), run: fn})
	gQueued.Add(1) // before a worker can pop it, so the gauge never dips below 0
	e.mu.Unlock()
	e.work.Signal()
	return nil
}

// donePool recycles Run's completion channels — a buffered channel is
// send/receive-paired rather than closed, so it comes back empty and
// reusable (the same trick as netd's pooled reply channels).
var donePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Run enqueues fn at prio and waits for it to finish.
func (e *Engine) Run(prio int32, fn func()) error {
	done := donePool.Get().(chan struct{})
	defer donePool.Put(done)
	if err := e.Submit(prio, func() {
		fn()
		done <- struct{}{}
	}); err != nil {
		return err
	}
	<-done
	return nil
}

// Queued reports the number of items waiting (not running).
func (e *Engine) Queued() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.q)
}

// worker runs the top item until the engine is closed and drained.
func (e *Engine) worker() {
	defer e.wg.Done()
	e.mu.Lock()
	for {
		for len(e.q) == 0 && !e.closed {
			e.work.Wait()
		}
		if len(e.q) == 0 {
			e.mu.Unlock()
			return
		}
		it := e.q.pop()
		e.mu.Unlock()
		gQueued.Add(-1)
		hQueueDelay.ObserveSince(it.at, 0)
		it.run()
		e.mu.Lock()
	}
}

// Close stops the engine: further Submits fail with ErrClosed, queued
// work is drained, and Close returns once every worker has exited.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.work.Broadcast()
	e.wg.Wait()
}
