package netd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// Tests for the combining write path (E28) and the reader's hand-off of
// payload-sized requests. Each fails, or cannot be written, at the parent:
// there a writer goroutine owned every socket write.

// seqFrame is a frame naming its sender, its place among that sender's
// frames and, if known, its place among all frames enqueued.
func seqFrame(sender, own, global uint32) *buffer.Buffer {
	b := buffer.Get(16)
	b.WriteByte(msgPing)
	b.WriteUint32(sender)
	b.WriteUint32(own)
	b.WriteUint32(global)
	return b
}

func TestSendFIFOUnderContention(t *testing.T) {
	near, far := socketPair(t)
	c := newConn(near)
	defer c.fail(errConnDead)
	const senders, per = 16, 300
	frames0, depth0 := gFramesCoalesced.Value(), gSendQueueDepth.Value()

	read := make(chan error, 1)
	go func() {
		read <- func() error {
			br := bufio.NewReader(far)
			if f := rawFrame(t, br); f[4] != msgHello {
				return errors.New("the first frame on the wire is not the hello")
			}
			var next [senders]uint32
			var global uint32
			for i := 0; i < senders*per; i++ {
				f := rawFrame(t, br)
				s, own, g := binary.LittleEndian.Uint32(f[5:]), binary.LittleEndian.Uint32(f[9:]), binary.LittleEndian.Uint32(f[13:])
				if own != next[s] {
					return errors.New("a sender's frames arrived out of its own order")
				}
				next[s]++
				if g != 0 {
					if g <= global {
						return errors.New("frames arrived out of enqueue order")
					}
					global = g
				}
			}
			return nil
		}()
	}()

	hello := buffer.Get(16)
	hello.WriteByte(msgHello)
	if err := c.send(hello); err != nil {
		t.Fatal(err)
	}
	// Even senders take a ticket and enqueue under one lock, so the order
	// frames were accepted in is known, and flush outside it; odd senders
	// use send as callers do.
	var ticket sync.Mutex
	var issued uint32
	var wg sync.WaitGroup
	for s := uint32(0); s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); i < per; i++ {
				var err error
				if s%2 == 0 {
					ticket.Lock()
					issued++
					err = c.enqueue(seqFrame(s, i, issued), nil, false)
					ticket.Unlock()
					c.flush()
				} else {
					err = c.send(seqFrame(s, i, 0))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "the write side to go idle", func() bool { return gSendQueueDepth.Value() == depth0 })
	if d := gFramesCoalesced.Value() - frames0; d != senders*per+1 {
		t.Errorf("%d frames counted written, want %d", d, senders*per+1)
	}
}

func TestSendDropExactlyOnce(t *testing.T) {
	base, depth0 := sctest.Snapshot(), gSendQueueDepth.Value()
	near, far := socketPair(t)
	c := newConn(near)
	// The peer reads nothing until the connection has died: the socket
	// fills, one sender blocks in its write, the queue fills behind it and
	// the rest block for room.
	const senders, per, size = 16, 128, 16 << 10
	var drops [senders * per]atomic.Int32
	var accepted [senders * per]atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := s*per + i
				f := testFrame(msgPing, size)
				binary.LittleEndian.PutUint32(f.Bytes()[1:], uint32(id))
				if c.sendDrop(f, func() { drops[id].Add(1) }) != nil {
					return
				}
				accepted[id].Store(true)
			}
		}()
	}
	waitFor(t, 5*time.Second, "the queue to fill behind the stalled write", func() bool {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		return c.writing && len(c.q) >= sendQueueLen
	})
	c.fail(errConnDead)
	wg.Wait()
	// A transient flusher may still be discarding the batch it held.
	waitFor(t, 5*time.Second, "every accepted frame to be written or dropped", func() bool { return gSendQueueDepth.Value() == depth0 })

	arrived := make(map[int]bool)
	br := bufio.NewReader(far)
	for {
		hdr := make([]byte, 4+5)
		if _, err := io.ReadFull(br, hdr); err != nil {
			break
		}
		if _, err := br.Discard(size - 5); err != nil {
			break // cut off mid-frame
		}
		arrived[int(binary.LittleEndian.Uint32(hdr[5:]))] = true
	}
	lost := 0
	for id := range drops {
		n := drops[id].Load()
		switch {
		case !accepted[id].Load() && n != 0:
			t.Fatalf("frame %d was refused and its drop ran %d times", id, n)
		case accepted[id].Load() && !arrived[id] && n != 1:
			t.Fatalf("frame %d was accepted and lost and its drop ran %d times", id, n)
		case n > 1:
			t.Fatalf("frame %d: drop ran %d times", id, n)
		}
		lost += int(n)
	}
	if lost == 0 || len(arrived) == 0 {
		t.Fatalf("%d frames arrived and %d were lost: the test wants some of each", len(arrived), lost)
	}
	near.Close()
	far.Close()
	if err := sctest.AssertQuiesced(base); err != nil {
		t.Fatal(err)
	}
}

// tokenConn is a connection whose every Write spends a token the test
// grants (sock.Writev writes a frame to it as two: prefix, then payload).
// Tokens are granted in one piece, so a writer never runs out half way
// through a grant and reports itself waiting.
type tokenConn struct {
	*discardConn
	tokens  chan int
	left    int           // the writer's: granted and not yet spent
	waiting chan struct{} // a Write is waiting for a grant
	wrote   bytes.Buffer
}

func (c *tokenConn) Write(p []byte) (int, error) {
	if c.left == 0 {
		select {
		case c.left = <-c.tokens:
		default:
			c.waiting <- struct{}{}
			select {
			case c.left = <-c.tokens:
			case <-c.ch:
				return 0, os.ErrClosed
			}
		}
	}
	c.left--
	return c.wrote.Write(p)
}

func TestFlusherNotCaptive(t *testing.T) {
	base := sctest.Snapshot()
	netc := &tokenConn{discardConn: newDiscardConn(), tokens: make(chan int, 1), waiting: make(chan struct{}, 1)}
	c := newConn(netc)
	defer c.fail(errConnDead)
	give := func(frames int) { netc.tokens <- 2 * frames }
	returned := make(chan error, 1)
	go func() { returned <- c.send(testFrame(1, 8)) }()
	<-netc.waiting // the first sender holds the write side, in its write

	// Senders that find it held enqueue and go.
	for tag := byte(2); tag <= 3; tag++ {
		if err := c.send(testFrame(tag, 8)); err != nil {
			t.Fatal(err)
		}
	}
	give(1)
	// Its own batch, which was its own frame: the two that queued meanwhile
	// are somebody else's to write, and the first sender is back before a
	// byte of them moves.
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first sender is still writing other senders' frames")
	}
	<-netc.waiting // the transient flusher, stalled on frame 2
	if got := netc.wrote.Len(); got != 4+8 {
		t.Fatalf("%d bytes written with the first sender back, want its own frame's 12", got)
	}
	var dropped atomic.Int32
	if err := c.sendDrop(testFrame(4, 8), func() { dropped.Add(1) }); err != nil {
		t.Fatal(err)
	}
	give(2)
	<-netc.waiting // one batch at a time: frame 4 is the flusher's next

	// A sender waiting for room behind the stalled flusher is released by
	// fail, and what was accepted and not written is dropped, once.
	for i := 0; i < sendQueueLen; i++ {
		if err := c.send(testFrame(5, 8)); err != nil {
			t.Fatal(err)
		}
	}
	go func() { returned <- c.send(testFrame(6, 8)) }()
	select {
	case err := <-returned:
		t.Fatalf("send into a full queue behind a stalled write returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.fail(errConnDead)
	select {
	case err := <-returned:
		if !errors.Is(err, errConnDead) {
			t.Fatalf("the blocked sender was released with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fail did not release the sender waiting for room")
	}
	waitFor(t, 5*time.Second, "frame 4's drop", func() bool { return dropped.Load() == 1 })
	if err := sctest.AssertQuiesced(base); err != nil {
		t.Fatal(err)
	}
	if n := dropped.Load(); n != 1 {
		t.Fatalf("frame 4's drop ran %d times", n)
	}
}

// handOffConn discards what is written, and the first Write after armed is
// set queues one more frame on c: the sender finds the queue non-empty
// after its batch and hands the write side to a transient flusher.
type handOffConn struct {
	*discardConn
	c     *conn
	armed bool
}

func (h *handOffConn) Write(p []byte) (int, error) {
	if h.armed {
		h.armed = false
		_ = h.c.queue(buffer.Get(8))
	}
	return len(p), nil
}

func TestFlusherHandOffAllocs(t *testing.T) {
	// Starting the transient flusher allocates nothing: go c.flushRest()
	// made a closure per hand-off, garbage enough on a busy durable-write
	// server to make it collect mid-run (E36).
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	netc := &handOffConn{discardConn: newDiscardConn()}
	c := newConn(netc)
	defer c.fail(errConnDead)
	netc.c = c
	flushers := gFlushes.Value()
	handOff := func() {
		netc.armed = true
		if err := c.send(buffer.Get(8)); err != nil {
			t.Fatal(err)
		}
		for { // until the flusher has written the second frame and let go
			c.wmu.Lock()
			writing := c.writing
			c.wmu.Unlock()
			if !writing {
				return
			}
			runtime.Gosched()
		}
	}
	if n := testing.AllocsPerRun(200, handOff); n > 0 {
		t.Fatalf("a hand-off to the transient flusher allocates %.2f objects, want 0", n)
	}
	if d := gFlushes.Value() - flushers; d < 2*201 {
		t.Fatalf("%d writes for 201 hand-offs: the flusher was not started", d)
	}
}

func TestStalledPeerDoesNotHoldCallers(t *testing.T) {
	// A stops reading — and keeps pinging, so B's heartbeat never finds it
	// silent. B's callers send 192 KiB requests until the socket is full and
	// one of them is in a write the socket will not take: that write is handed
	// to a flusher after writePatience, and every caller comes back on its
	// own deadline, a hundredth of B's LeaseGrace.
	fn := faultnet.New()
	a := newMachineCfg(t, "A", Config{Transport: FuncTransport{ListenFunc: fn.ListenFunc(nil)}})
	b := newMachine(t, "B")
	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	payload := bigPayload(192 << 10)
	if err := echoBytes(remote, payload); err != nil {
		t.Fatal(err)
	}
	bulk := b.srv.record(a.srv.Addr()).link.conns[roleBulk].Load()
	stalled := func() bool {
		bulk.wmu.Lock()
		defer bulk.wmu.Unlock()
		return bulk.writing
	}
	fn.SeverInbound()
	const callers, deadline = 16, 100 * time.Millisecond
	for round := 0; !stalled(); round++ {
		if round == 40 {
			t.Fatal("120 MiB sent to a peer that reads nothing and no write has stalled")
		}
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				err := stubs.Call(remote, 0, func(b *buffer.Buffer) error { b.WriteBytes(payload); return nil },
					func(*buffer.Buffer) error { return nil }, core.WithTimeout(deadline))
				if !errors.Is(err, core.ErrDeadlineExceeded) {
					t.Errorf("a call to a peer that reads nothing: %v", err)
				}
				if d := time.Since(start); d > 10*deadline {
					t.Errorf("a call with a %v deadline came back after %v", deadline, d)
				}
			}()
		}
		wg.Wait()
	}
	// Nothing was failed for being slow: the peer reads again, the backlog
	// goes out, and the connection the flusher was stalled on carries the
	// next call.
	fn.Heal()
	if err := echoBytes(remote, payload); err != nil {
		t.Fatal(err)
	}
	if bulk.isDead() {
		t.Fatal("the stalled connection was failed")
	}
}

func TestStalledPeerDoesNotHoldReader(t *testing.T) {
	// A peer that sends requests five at a time and reads no replies: the
	// reader answers each five inline and writes the replies itself, until
	// the socket is full; then it hands what is left to a flusher and is back
	// reading, and the requests after that are served with every reply before
	// them still stuck. (The queue bounds how far: sendQueueLen frames.)
	a := newMachine(t, "A")
	var served atomic.Int32
	reply := bigPayload(100 << 10)
	obj, _ := singleton.Export(a.env, stressEchoMT, stubs.SkeletonFunc(func(_ core.OpNum, _, results *buffer.Buffer) error {
		served.Add(1)
		results.WriteBytes(reply)
		return nil
	}), nil)
	a.srv.PublishRoot("big", obj)
	peer := dialRawPeer(t, a.srv.Addr())
	args := buffer.New(4)
	args.WriteUint32(0)
	peer.prepareCall(peer.importRoot("big"), args)
	peer.roundTrips(50)       // the door earns its place on the reader
	const bursts, per = 60, 5 // 30 MB of replies: three times what two socket buffers hold
	wire := bytes.Repeat(peer.call, per)
	for i := int32(1); i <= bursts; i++ {
		if _, err := peer.conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "the reader to serve five more requests with their replies unread", func() bool { return served.Load() == 50+i*per })
	}
}

func TestIdleConnGoroutines(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	exportCounter(t, a, "counter")
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := sctest.Get(remote); err != nil {
			t.Fatal(err)
		}
	}
	// One connection, two ends: each end's reader, and nothing else of
	// conn's. (Earlier tests' servers are closed, and Close waits for
	// their readers.)
	var readers, others int
	waitFor(t, 2*time.Second, "the connection to go idle with one goroutine an end", func() bool {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		readers, others = 0, 0
		for _, g := range bytes.Split(stacks, []byte("\n\n")) {
			switch {
			case bytes.Contains(g, []byte("netd.(*Server).serveConn")):
				readers++
			case bytes.Contains(g, []byte("netd.(*conn).")):
				others++
			}
		}
		return readers == 2 && others == 0
	})
}

func TestNullCallOneFlushEachWay(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	exportCounter(t, a, "counter")
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	// From the first call, while the door still gets a goroutine a call, to
	// well past its promotion to the reader: a call is one write, its reply
	// is one write.
	const calls = 100
	idle := func() bool { return gSendQueueDepth.Value() == 0 } // the counters move before the depth does
	waitFor(t, time.Second, "the import's writes to be counted", idle)
	flushes, frames := gFlushes.Value(), gFramesCoalesced.Value()
	for i := 0; i < calls; i++ {
		if _, err := sctest.Get(remote); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, "the last reply's write to be counted", idle)
	if df, dn := gFlushes.Value()-flushes, gFramesCoalesced.Value()-frames; df != 2*calls || dn != 2*calls {
		t.Errorf("%d null calls one at a time made %d writes of %d frames, want %d of %d", calls, df, dn, 2*calls, 2*calls)
	}
}

func TestBulkBurstHandsOff(t *testing.T) {
	const n, size = 16, 64 << 10
	// burst sends one 64 KiB call to each of n fresh doors — doors with no
	// history get a goroutine a call — back to back on one connection, and
	// waits for the n replies.
	burst := func(t *testing.T, skel stubs.Skeleton) buffer.Ledger {
		a := newMachine(t, "A")
		peer := dialRawPeer(t, a.srv.Addr())
		var wire []byte
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			obj, _ := singleton.Export(a.env, stressEchoMT, skel, nil)
			a.srv.PublishRoot(name, obj)
			args := buffer.New(4 + size)
			args.WriteUint32(0)
			args.WriteRaw(make([]byte, size))
			peer.prepareCall(peer.importRoot(name), args)
			binary.LittleEndian.PutUint64(peer.call[5:], uint64(100+i))
			wire = append(wire, peer.call...)
		}
		buffer.Trim() // twice: the large class's arrays are idle no more,
		buffer.Trim() // so every array the burst needs at once is one it makes
		before := buffer.Stats()
		_ = peer.conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := peer.conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if reply := peer.next(msgReply); reply[8] != codeOK {
				t.Fatalf("reply %d: code %d", i, reply[8])
			}
		}
		return buffer.Stats().Sub(before)
	}

	t.Run("runnable handlers do not pile up", func(t *testing.T) {
		nop := stubs.SkeletonFunc(func(core.OpNum, *buffer.Buffer, *buffer.Buffer) error { return nil })
		if d, max := burst(t, nop), int64(runtime.GOMAXPROCS(0)+2); d.LargeAllocs > max {
			t.Errorf("%d payload-sized arrays made for %d requests whose handlers never block, want at most %d", d.LargeAllocs, n, max)
		}
	})
	t.Run("blocked handlers do", func(t *testing.T) {
		// Nobody is answered until all n are in their handlers: the yield
		// must never wait for the handler it yields to.
		var in atomic.Int32
		all := make(chan struct{})
		rendezvous := stubs.SkeletonFunc(func(core.OpNum, *buffer.Buffer, *buffer.Buffer) error {
			if in.Add(1) == n {
				close(all)
			}
			<-all
			return nil
		})
		burst(t, rendezvous)
	})
}
