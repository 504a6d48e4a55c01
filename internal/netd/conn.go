package netd

import (
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/sock"
)

// This file is the connection data path. One rule shapes it (DESIGN §12):
// the goroutine that has the bytes and the processor finishes the job.
//
//   - There is no writer goroutine. A sender that finds the write side idle
//     takes it and writes its own frame, and whatever queued behind it, in
//     one writev from the buffers the frames were marshalled in; a sender
//     that finds it taken appends to the queue and returns. What queues
//     while one write is in the kernel is the next batch, so N pipelined
//     callers still cost about one syscall per batch, and a lone caller's
//     frame is on the socket before send returns. Ordering is strict FIFO
//     in enqueue order; on connection death every queued and in-flight call
//     fails fast in the kernel.ErrCommFailure class.
//   - The request/reply demultiplexer is one map per connection under one
//     mutex: request-id registration, delivery, abandonment and fail are
//     each one short critical section on it, and liveness checks are a
//     single atomic load.
//   - A pending call is one pooled callFuture — an atomic state machine
//     parked on a one-shot semaphore with an embedded reusable timer.
//     Register/deliver/abandon/fail are transitions on that struct, and a
//     context-free small call allocates near-zero on the client hot path
//     (enforced by TestAllocs* guards).

// errConnDead is the sentinel for operations on a failed connection; the
// call sites wrap it in the kernel.ErrCommFailure class via commErr.
var errConnDead = errors.New("connection closed")

const (
	// sendQueueLen bounds the frames queued behind one connection's write
	// side. Enqueueing blocks (fail-fast on conn death) beyond it —
	// backpressure, not unbounded memory.
	sendQueueLen = 256
	// writePatience is how long a sender, or the reader, stays in a write
	// the socket will not take before it passes what is left to a flusher
	// goroutine (at most twice this: see write). A write that outlasts it
	// is only ever handed on, never failed. Not shorter: a deadline timer a
	// millisecond or two out cost null_c1 a tenth of its calls (E28).
	writePatience = 10 * time.Millisecond
)

// callFuture states. A future is pending from register until exactly one
// of deliver (a reply arrived), fail (the connection died) or abandon
// (the waiter gave up first) settles it.
const (
	futPending uint32 = iota
	futDelivered
	futFailed
	futAbandoned
)

// callFuture is one pending call's rendezvous: the single pooled object
// that replaces the per-call reply channel, reply-wait timer and their
// separate pool round trips (E21). The settling side (reader goroutine,
// fail) arbitrates ownership under the pending table's lock — lookup,
// removal and the state/reply stores happen atomically together — and
// then signals ready, a one-shot semaphore. The waiting side selects on
// ready, its context's cancel channel and the embedded timer; whichever
// side removed the map entry decided the race, so a waiter that finds its
// entry already gone knows a ready signal is in flight and drains it
// before recycling. Only the waiter returns a future to the pool.
type callFuture struct {
	state atomic.Uint32
	reply *buffer.Buffer
	ready chan struct{} // cap 1: exactly one send per settle
	timer *time.Timer   // lazily created, reused across pool cycles
}

// futurePool recycles callFutures. The ready channel is created once per
// future and reused: every settle sends exactly once and every consumer
// receives exactly once, so a pooled future's channel is always empty.
var futurePool = sync.Pool{New: func() any {
	return &callFuture{ready: make(chan struct{}, 1)}
}}

func getFuture() *callFuture {
	f := futurePool.Get().(*callFuture)
	f.state.Store(futPending)
	f.reply = nil
	return f
}

func putFuture(f *callFuture) { futurePool.Put(f) }

// armTimer (re)arms the future's embedded reply-wait timer. Reset on a
// fired-but-unread timer is race-free since the Go 1.23 timer semantics
// (go.mod pins ≥1.23), so the timer can never deliver a stale tick.
func (f *callFuture) armTimer(d time.Duration) *time.Timer {
	if f.timer == nil {
		f.timer = time.NewTimer(d)
	} else {
		f.timer.Reset(d)
	}
	return f.timer
}

// sendReq is one queued frame: buf is the connection's from the moment send
// accepts it, and drop, if set, runs if the frame may not have reached the
// peer (write error, death with it queued) — the release path requeues.
type sendReq struct {
	buf  *buffer.Buffer
	drop func()
}

// conn is one transport connection with multiplexed request/reply
// framing, combined writes, and heartbeat bookkeeping. A peer address is
// served by up to two conns — its link's call and bulk connections
// (link.go); each has its own queue, pending table and request-id space,
// so nothing here knows which role it plays. Idle, it owns one goroutine:
// its reader (serveConn).
type conn struct {
	netc sock.Stream

	// The write side. q holds the frames accepted and not yet taken, in
	// order; writing says some goroutine owns the socket's write half, and
	// is only cleared with q empty. room wakes senders waiting out a full
	// queue. The rest is the holder's own, reused from write to write: the
	// frames it took, their length prefixes, the vector they leave by, and
	// the write deadline the socket is under (zero: none).
	wmu     sync.Mutex
	room    sync.Cond
	q       []sendReq
	writing bool
	batch   []sendReq
	lens    []byte
	iov     [][]byte
	vec     [][]byte
	wdl     time.Time
	flusher func() // c.flushRest, bound once: a go statement on it allocates no closure

	helloed        chan struct{} // closed once the peer's hello arrives
	done           chan struct{} // closed when the conn dies
	dead           atomic.Bool
	pinging        atomic.Bool
	recvd, sent    atomic.Bool // marks: a read returned bytes, a write began, since the last sweep
	recvAt, sendAt int64       // stamps: the unix nanos of the sweeps that saw them (sweep), under Server.mu

	// The pending-call table: the calls registered and not yet settled,
	// by request id. pending is len(pend), readable without pmu.
	nextID  atomic.Uint64
	pmu     sync.Mutex
	pend    map[uint64]*callFuture
	pending atomic.Int32

	// inflight counts this connection's serve calls admitted and not yet
	// replied, against half of Config.MaxInflight (admitServe).
	inflight atomic.Int64

	// sess and peer are set by the hello, under Server.mu, on the
	// connection's reader (handleHello) — peer from the dial on, if dialled.
	sess *session   // peer lease session; nil until the hello
	peer *peerState // the record of the peer's address; nil if it gave none
}

// newConn wraps netc. It starts nothing: the caller runs serveConn.
func newConn(netc sock.Stream) *conn {
	c := &conn{
		netc:    netc,
		helloed: make(chan struct{}),
		done:    make(chan struct{}),
		pend:    make(map[uint64]*callFuture),
	}
	c.room.L = &c.wmu
	c.flusher = c.flushRest
	return c
}

// Read is the reader's source: the socket, marking the connection once per
// read that returned bytes — once per batch of frames rather than per
// frame, and never skipped however long the stream stays busy.
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.netc.Read(p)
	if n > 0 {
		c.recvd.Store(true)
	}
	return n, err
}

// isDead reports whether the connection has failed.
func (c *conn) isDead() bool { return c.dead.Load() }

// hasSession reports whether the session handshake completed. Only the
// reader calls it, and the reader is the goroutine that sets sess — the
// hello is served on it — so the read needs no lock: other goroutines read
// sess only under Server.mu, which the write holds.
func (c *conn) hasSession() bool { return c.sess != nil }

// register allocates a request id and a pooled pending future. On a dead
// connection the future comes back already settled as failed (with its
// ready signal sent), mirroring fail(): the caller's send will also
// error, and its abandon drains the signal before recycling.
func (c *conn) register() (uint64, *callFuture) {
	id := c.nextID.Add(1)
	f := getFuture()
	c.pmu.Lock()
	if c.dead.Load() {
		c.pmu.Unlock()
		f.state.Store(futFailed)
		f.ready <- struct{}{}
		return id, f
	}
	c.pend[id] = f
	c.pending.Add(1)
	c.pmu.Unlock()
	return id, f
}

// deliver completes a pending request. It reports whether a waiter owns
// the reply now; an undeliverable reply (its caller timed out or
// cancelled, and won the abandon race) is the receive loop's to recycle.
func (c *conn) deliver(id uint64, reply *buffer.Buffer) bool {
	c.pmu.Lock()
	f, ok := c.pend[id]
	if ok {
		delete(c.pend, id)
		c.pending.Add(-1)
		f.reply = reply
		f.state.Store(futDelivered)
	}
	c.pmu.Unlock()
	if ok {
		f.ready <- struct{}{}
	}
	return ok
}

// abandon withdraws a pending request whose waiter is giving up (timeout,
// cancellation, send failure). If the entry is still in the table the
// waiter won: no settle can touch the future anymore, so it is recycled
// here. Otherwise a settle (deliver or fail) removed the entry and its
// ready signal follows immediately, so the drain is bounded — take it,
// put a delivered reply back in the pool, and then recycle.
func (c *conn) abandon(id uint64, f *callFuture) {
	c.pmu.Lock()
	if _, ok := c.pend[id]; ok {
		delete(c.pend, id)
		c.pending.Add(-1)
		f.state.Store(futAbandoned)
		c.pmu.Unlock()
		putFuture(f)
		return
	}
	c.pmu.Unlock()
	<-f.ready
	if f.state.Load() == futDelivered {
		buffer.Put(f.reply)
		f.reply = nil
	}
	putFuture(f)
}

// send transfers ownership of payload to the connection and, if the write
// side is idle, writes it before returning. It returns an error only when
// the connection is (or while blocked becomes) dead; a later write failure
// surfaces through the pending futures.
func (c *conn) send(payload *buffer.Buffer) error { return c.enqueue(payload, nil, true) }

// sendDrop is send with a loss callback: drop runs exactly once if the
// frame was accepted but may never have reached the peer (conn death before
// or during its write). On an error return drop is NOT called — the caller
// still owns the failure.
func (c *conn) sendDrop(payload *buffer.Buffer, drop func()) error {
	return c.enqueue(payload, drop, true)
}

// queue is send without the write: the frame leaves with the next flush.
// Only the reader, which always flushes before it blocks, may use it
// (serveConn): what a read batch's handlers answer leaves in one write.
func (c *conn) queue(payload *buffer.Buffer) error { return c.enqueue(payload, nil, false) }

func (c *conn) enqueue(payload *buffer.Buffer, drop func(), flush bool) error {
	c.wmu.Lock()
	for len(c.q) >= sendQueueLen && c.writing && !c.dead.Load() {
		c.room.Wait()
	}
	if c.dead.Load() {
		c.wmu.Unlock()
		buffer.Put(payload)
		return errConnDead
	}
	c.q = append(c.q, sendReq{buf: payload, drop: drop})
	gSendQueueDepth.Add(1)
	if flush || len(c.q) >= sendQueueLen {
		c.flushLocked()
	} else {
		c.wmu.Unlock()
	}
	return nil
}

// flush writes what is queued, if nobody else is writing it already.
func (c *conn) flush() {
	c.wmu.Lock()
	c.flushLocked()
}

// flushLocked is the combining protocol. Called with wmu held, it releases
// it. If frames are queued and the write side is idle it takes the write
// side and writes one batch — everything queued at that moment — for at
// most two writePatience. What is left then, of the batch or in the queue,
// goes with the write side to a goroutine started for it: no caller, and no
// reader, is captive to other senders' traffic or to a peer that has
// stopped reading, and the write side is never idle over a non-empty queue.
func (c *conn) flushLocked() {
	if c.writing || len(c.q) == 0 {
		c.wmu.Unlock()
		return
	}
	c.writing = true
	if c.pending.Load() > 1 {
		// Other calls are out, so other callers are about: one yield lets
		// the runnable ones queue behind this frame and share its write
		// (E28: without it small_open's server CPU per call is 4 % up).
		c.wmu.Unlock()
		runtime.Gosched()
		c.wmu.Lock()
	}
	c.take()
	if !c.write(true) || c.more() {
		go c.flusher()
	}
}

// flushRest is the transient flusher: it inherits the write side and a
// batch taken, and gives the write side up when the queue is empty.
func (c *conn) flushRest() {
	c.write(false)
	for c.more() {
		c.write(false)
	}
}

// more takes what queued during a write as the next batch, or gives the
// write side up if nothing did.
func (c *conn) more() bool {
	c.wmu.Lock()
	if len(c.q) == 0 {
		c.writing = false
		c.wmu.Unlock()
		return false
	}
	c.take()
	return true
}

// take makes the queue the batch and lays it out for one writev: each
// frame's length prefix, then the frame, from the buffer it lies in. Called
// by the holder of the write side with wmu held, it releases it.
func (c *conn) take() {
	c.batch, c.q = c.q, c.batch[:0]
	c.room.Broadcast()
	c.wmu.Unlock()
	n := len(c.batch)
	if len(c.iov) < 2*n {
		m := max(2*n, 8) // frames; doubling, so a deepening queue re-makes them rarely
		c.lens, c.iov = make([]byte, 4*m), make([][]byte, 2*m)
	}
	for i, r := range c.batch {
		p := r.buf.Bytes()
		l := c.lens[4*i : 4*i+4]
		binary.LittleEndian.PutUint32(l, uint32(len(p)))
		c.iov[2*i], c.iov[2*i+1] = l, p
	}
	c.vec = c.iov[:2*n] // Writev consumes vec as it writes; iov keeps the layout
}

// write sends what is left of the batch (on a connection that is not a
// socket, sock.Writev degrades to a write per element) and reports whether
// the batch is done with: written and recycled, or lost with the connection
// — a failed write runs the drop of every frame in it. A patient write is
// under a deadline one to two writePatience away, moved only when it has
// come nearer than one (a busy connection sets it a hundred times a second,
// not once a write); if it expires, what was not written is still in vec
// and the caller passes it on. Only the holder calls it.
func (c *conn) write(patient bool) bool {
	err := errConnDead
	if !c.dead.Load() {
		c.sent.Store(true)
		now := time.Now()
		if patient && c.wdl.Sub(now) < writePatience {
			c.wdl = now.Add(2 * writePatience)
			_ = c.netc.SetWriteDeadline(c.wdl)
		} else if !patient && !c.wdl.IsZero() {
			c.wdl = time.Time{}
			_ = c.netc.SetWriteDeadline(c.wdl)
		}
		_, err = sock.Writev(c.netc, &c.vec)
		if patient && errors.Is(err, os.ErrDeadlineExceeded) {
			return false
		}
	}
	clear(c.iov[:2*len(c.batch)])
	if err == nil {
		gFlushes.Add(1)
		gFramesCoalesced.Add(int64(len(c.batch)))
	} else {
		c.fail(err)
	}
	discard(c.batch, err != nil)
	return true
}

// discard recycles frames that have left the queue, lost or written.
func discard(frames []sendReq, lost bool) {
	for _, r := range frames {
		buffer.Put(r.buf)
		if lost && r.drop != nil {
			r.drop()
		}
	}
	gSendQueueDepth.Add(int64(-len(frames))) // last: at depth 0 nothing is owed
	clear(frames)
}

// fail marks the connection dead, discards what is queued (a batch already
// taken is its writer's to discard, when the write fails on the closed
// socket), releases senders waiting for room and wakes all pending
// requests: waiters observe a failed future and report a communications
// failure for their own peer address. Loss callbacks run here, so fail is
// never called under Server.mu.
func (c *conn) fail(error) {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	close(c.done)
	_ = c.netc.Close()
	c.wmu.Lock()
	q := c.q
	c.q = nil
	c.room.Broadcast()
	c.wmu.Unlock()
	discard(q, true)
	c.pmu.Lock()
	m := c.pend
	c.pend = nil // register refuses a dead connection: nothing is added again
	for _, f := range m {
		f.state.Store(futFailed)
	}
	c.pending.Add(int32(-len(m)))
	c.pmu.Unlock()
	for _, f := range m {
		f.ready <- struct{}{}
	}
}
