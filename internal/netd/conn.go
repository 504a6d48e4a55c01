package netd

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
)

// This file is the connection data path, rebuilt for throughput under
// concurrency (E15) and rebuilt again as the client call engine (E21):
//
//   - Frames are not written caller-side under a mutex. Each connection
//     runs one writer goroutine draining a bounded send queue; all the
//     frames it can grab are flattened into one buffered flush and hit
//     the socket in a single write, so N pipelined callers cost ~one
//     syscall per batch instead of N (×2 — the old path wrote the length
//     header and the payload separately). Ordering is strict FIFO in
//     enqueue order; on connection death every queued and in-flight call
//     fails fast in the kernel.ErrCommFailure class.
//   - The flush policy is occupancy-aware: the writer lingers (a bounded
//     scheduler yield) to coalesce only while some producer is observed
//     mid-enqueue; a lone pipelining caller's frame goes to the socket
//     immediately, so P1 latency no longer pays for P64 batching.
//   - The request/reply demultiplexer is sharded: request-id registration,
//     delivery and abandonment distribute over pendShards mutexes instead
//     of contending on one, and liveness checks are a single atomic load.
//   - A pending call is one pooled callFuture — an atomic state machine
//     parked on a one-shot semaphore with an embedded reusable timer —
//     instead of a pooled channel plus a pooled timer plus a map entry
//     with its own lifecycle. Register/deliver/abandon/fail collapse into
//     transitions on that struct, and a context-free small call allocates
//     near-zero on the client hot path (enforced by TestAllocs* guards).

// errConnDead is the sentinel for operations on a failed connection; the
// call sites wrap it in the kernel.ErrCommFailure class via commErr.
var errConnDead = errors.New("connection closed")

const (
	// pendShards is the number of pending-call shards per connection
	// (a power of two; request ids distribute round-robin).
	pendShards = 16
	// sendQueueLen bounds the frames queued behind one connection's
	// writer. Enqueueing blocks (fail-fast on conn death) beyond it —
	// backpressure, not unbounded memory.
	sendQueueLen = 256
	// flushHighWater caps how many bytes one flush batches: a frame that
	// would take the batch past it is not copied in — it ends the batch
	// and goes to the socket from where it lies, in the same write.
	flushHighWater = 64 << 10
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
// fail) arbitrates ownership under the pending-table shard lock — lookup,
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

// pendShard is one lock stripe of the pending-call table.
type pendShard struct {
	mu sync.Mutex
	m  map[uint64]*callFuture
}

// sendReq is one queued frame. buf is owned by the queue from the moment
// send accepts it and is recycled after the flush. drop, if set, is
// called when the frame may not have reached the peer (write error or
// queue discard on conn death) — the release path uses it to requeue.
type sendReq struct {
	buf  *buffer.Buffer
	drop func()
}

// conn is one transport connection with multiplexed request/reply
// framing, batched writes, and heartbeat bookkeeping. A peer address is
// served by up to two conns — its link's call and bulk connections
// (link.go); each has its own writer, pending table and request-id space,
// so nothing here knows which role it plays.
type conn struct {
	netc  net.Conn
	sendq chan sendReq

	helloed  chan struct{} // closed once the peer's hello arrives
	done     chan struct{} // closed when the conn dies
	dead     atomic.Bool
	lastRecv atomic.Int64 // unix nanos of the last frame received
	lastSend atomic.Int64 // unix nanos of the last flush written
	pinging  atomic.Bool

	// producers counts goroutines currently inside sendDrop, and pending
	// counts registered calls awaiting replies — the writer's occupancy
	// signals: when the queue runs dry mid-batch it lingers for
	// stragglers only while concurrency is in evidence.
	producers atomic.Int32
	pending   atomic.Int32

	nextID atomic.Uint64
	shards [pendShards]pendShard

	// inflight counts this peer's serve calls admitted and not yet
	// replied — the per-peer half of the dispatch engine's bounded
	// admission (Config.Dispatch.MaxPerPeer).
	inflight atomic.Int64

	// owner is this connection's region-grant token: every bulk region
	// granted for a frame sent on this connection is keyed under it, so
	// connClosed can reclaim exactly the in-flight grants a dead
	// connection strands. caps is the capability set negotiated at hello
	// (local ∩ peer ∩ same machine); zero until the handshake completes.
	owner uint64
	caps  atomic.Uint32

	mu        sync.Mutex
	helloDone bool
	sess      *session // peer lease session; guarded by Server.mu
	peerAddr  string   // peer's advertised listen address; set at hello
}

// newConn wraps netc and starts its writer goroutine, tracked by s.wg.
func (s *Server) newConn(netc net.Conn) *conn {
	c := &conn{
		netc:    netc,
		sendq:   make(chan sendReq, sendQueueLen),
		helloed: make(chan struct{}),
		done:    make(chan struct{}),
		owner:   nextOwner.Add(1),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*callFuture)
	}
	now := time.Now().UnixNano()
	c.lastRecv.Store(now)
	c.lastSend.Store(now)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		c.writeLoop()
	}()
	return c
}

// isDead reports whether the connection has failed.
func (c *conn) isDead() bool { return c.dead.Load() }

// bulk reports whether the connection negotiated the bulk-region tier.
func (c *conn) bulk() bool { return Capability(c.caps.Load())&CapBulkRegions != 0 }

// hasSession reports whether the session handshake completed.
func (c *conn) hasSession() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.helloDone
}

// shard returns the pending stripe for a request id.
func (c *conn) shard(id uint64) *pendShard { return &c.shards[id%pendShards] }

// register allocates a request id and a pooled pending future. On a dead
// connection the future comes back already settled as failed (with its
// ready signal sent), mirroring fail(): the caller's send will also
// error, and its abandon drains the signal before recycling.
func (c *conn) register() (uint64, *callFuture) {
	id := c.nextID.Add(1)
	f := getFuture()
	sh := c.shard(id)
	sh.mu.Lock()
	if c.dead.Load() {
		sh.mu.Unlock()
		f.state.Store(futFailed)
		f.ready <- struct{}{}
		return id, f
	}
	sh.m[id] = f
	c.pending.Add(1)
	sh.mu.Unlock()
	return id, f
}

// deliver completes a pending request. It reports whether a waiter owns
// the reply now; an undeliverable reply (its caller timed out or
// cancelled, and won the abandon race) is the receive loop's to clean up
// — it may carry a bulk region grant that must not be left stranded in
// the ring.
func (c *conn) deliver(id uint64, reply *buffer.Buffer) bool {
	sh := c.shard(id)
	sh.mu.Lock()
	f, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
		c.pending.Add(-1)
		f.reply = reply
		f.state.Store(futDelivered)
	}
	sh.mu.Unlock()
	if ok {
		f.ready <- struct{}{}
	}
	return ok
}

// abandon withdraws a pending request whose waiter is giving up (timeout,
// cancellation, send failure). If the entry is still in the table the
// waiter won: no settle can touch the future anymore, so it is recycled
// here. Otherwise a settle (deliver or fail) removed the entry and its
// ready signal follows immediately — drain it, dispose of a delivered
// reply via drop (it may carry a bulk region grant that must not sit in
// the ring until the connection dies), and then recycle.
func (c *conn) abandon(id uint64, f *callFuture, drop func(*buffer.Buffer)) {
	sh := c.shard(id)
	sh.mu.Lock()
	if _, ok := sh.m[id]; ok {
		delete(sh.m, id)
		c.pending.Add(-1)
		f.state.Store(futAbandoned)
		sh.mu.Unlock()
		putFuture(f)
		return
	}
	sh.mu.Unlock()
	<-f.ready
	if f.state.Load() == futDelivered {
		reply := f.reply
		f.reply = nil
		drop(reply)
	}
	putFuture(f)
}

// send transfers ownership of payload to the connection's writer. It
// returns an error only when the connection is (or while blocked becomes)
// dead; a later write failure surfaces through the pending futures.
func (c *conn) send(payload *buffer.Buffer) error {
	return c.sendDrop(payload, nil)
}

// sendDrop is send with a loss callback: drop runs if the frame was
// accepted but may never have reached the peer (conn death before or
// during its flush). On an error return drop is NOT called — the caller
// still owns the failure.
func (c *conn) sendDrop(payload *buffer.Buffer, drop func()) error {
	if c.dead.Load() {
		buffer.Put(payload)
		return errConnDead
	}
	c.producers.Add(1)
	select {
	case c.sendq <- sendReq{buf: payload, drop: drop}:
		c.producers.Add(-1)
		gSendQueueDepth.Add(1)
		if c.dead.Load() {
			// The writer may have exited between our enqueue and its
			// drain; sweep so no frame (ours or a racer's) is stranded.
			c.drainSendq()
		}
		return nil
	case <-c.done:
		c.producers.Add(-1)
		buffer.Put(payload)
		return errConnDead
	}
}

// writeLoop drains the send queue, coalescing every frame it can grab —
// up to flushHighWater bytes — into one buffered write. A frame that does
// not fit under the mark (every 64 KiB read reply or write call) is never
// copied: the batch so far, its length prefix and the frame where it lies
// leave in one writev. The flush buffer and the vector are reused across
// batches, so steady-state sends allocate nothing.
func (c *conn) writeLoop() {
	flush := make([]byte, 0, 16<<10)
	recycle := make([]*buffer.Buffer, 0, 32)
	drops := make([]func(), 0, 8)
	// WriteTo consumes the net.Buffers it is called on, so vec is re-sliced
	// from iov per writev; a literal per frame would be two allocations.
	var iov [2][]byte
	var vec net.Buffers
	// Adaptive linger credit (E21): when the queue runs dry mid-batch the
	// writer may yield a couple of times to let concurrent producers land
	// their frames — the win that turns N near-simultaneous sends into
	// one syscall. Lingering is a pure latency tax for a lone caller, so
	// it is gated on evidence of concurrency: more than one registered
	// call awaiting a reply, a producer observed mid-enqueue right now,
	// or recent batches that actually coalesced (credit, earned when a
	// batch carries >1 frame, spent when lingering yields nothing). A
	// single pipelining caller has pending == 1 at drain time, drains
	// its credit after two batches and gets immediate flushes from then
	// on; a client writer with 64 calls outstanding always lingers, and
	// a server's reply writer (pending is client-side, so 0 for it)
	// sustains lingering through credit as long as batching keeps paying.
	const maxLingerCredit = 4
	credit := 0
	for {
		select {
		case <-c.done:
			c.drainSendq()
			return
		case r := <-c.sendq:
			flush, recycle, drops = flush[:0], recycle[:0], drops[:0]
			lingered := 0
			var direct []byte // the frame that ended the batch, sent uncopied
			for {
				p := r.buf.Bytes()
				flush = binary.LittleEndian.AppendUint32(flush, uint32(len(p)))
				recycle = append(recycle, r.buf)
				if r.drop != nil {
					drops = append(drops, r.drop)
				}
				if len(flush)+len(p) > flushHighWater {
					direct = p
					break
				}
				flush = append(flush, p...)
				select {
				case r = <-c.sendq:
					continue
				default:
				}
				grabbed := false
				for !grabbed && lingered < 2 && (c.pending.Load() > 1 || credit > 0 || c.producers.Load() > 0) {
					lingered++
					runtime.Gosched()
					select {
					case r = <-c.sendq:
						grabbed = true
					default:
					}
				}
				if !grabbed {
					break
				}
			}
			if len(recycle) > 1 {
				if credit = credit + 2; credit > maxLingerCredit {
					credit = maxLingerCredit
				}
			} else if lingered > 0 && credit > 0 {
				credit--
			}
			gSendQueueDepth.Add(int64(-len(recycle)))
			var err error
			if direct == nil {
				_, err = c.netc.Write(flush)
			} else {
				iov[0], iov[1] = flush, direct
				vec = iov[:]
				_, err = vec.WriteTo(c.netc)
			}
			for _, b := range recycle {
				buffer.Put(b)
			}
			if err != nil {
				for _, d := range drops {
					d()
				}
				c.fail(err)
				c.drainSendq()
				return
			}
			gFlushes.Add(1)
			gFramesCoalesced.Add(int64(len(recycle)))
			c.lastSend.Store(time.Now().UnixNano())
		}
	}
}

// drainSendq discards queued frames after the connection died, recycling
// their buffers and running their loss callbacks.
func (c *conn) drainSendq() {
	for {
		select {
		case r := <-c.sendq:
			gSendQueueDepth.Add(-1)
			buffer.Put(r.buf)
			if r.drop != nil {
				r.drop()
			}
		default:
			return
		}
	}
}

// fail marks the connection dead and wakes all pending requests. The
// error is implicit: waiters observe a failed future and report a
// communications failure for their own peer address.
func (c *conn) fail(error) {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	close(c.done)
	_ = c.netc.Close()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		m := sh.m
		sh.m = make(map[uint64]*callFuture)
		for _, f := range m {
			f.state.Store(futFailed)
		}
		c.pending.Add(int32(-len(m)))
		sh.mu.Unlock()
		for _, f := range m {
			f.ready <- struct{}{}
		}
	}
}
