package netd

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultnet"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/sock"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// Tests for the rebuilt data path (E15): the coalescing writer, the
// sharded pending table, the pooled hot path, and the dial singleflight.

var stressEchoMT = &core.MTable{Type: "netd.stressecho", DefaultSC: singleton.SCID, Ops: []string{"echo"}}

func init() {
	core.MustRegisterType("netd.stressecho", core.ObjectType)
	core.MustRegisterMTable(stressEchoMT)
}

// echoBytes runs one remote echo call and checks the payload survives the
// round trip intact — a cross-delivered reply (a pooled channel handed a
// stale frame) would corrupt it.
func echoBytes(obj *core.Object, payload []byte) error {
	var got []byte
	err := stubs.Call(obj, 0,
		func(b *buffer.Buffer) error { b.WriteBytes(payload); return nil },
		func(b *buffer.Buffer) error {
			p, err := b.ReadBytes()
			got = append(got, p...) // the reply buffer is recycled after the unmarshal
			return err
		})
	if err != nil {
		return err
	}
	if string(got) != string(payload) {
		return fmt.Errorf("echo returned %q, want %q (cross-delivered reply)", got, payload)
	}
	return nil
}

func TestPipelinedCallsSurviveMidBatchKill(t *testing.T) {
	// 64 goroutines pipeline calls over one connection whose underlying
	// socket is hard-killed mid-batch (frames queued behind the writer
	// when it dies). Every in-flight call must terminate — success, or an
	// error in the kernel.ErrCommFailure class — with no hangs and no
	// reply delivered to the wrong caller.
	fn := faultnet.New()
	cfgB := quickCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	a := newMachineCfg(t, "A", quickCfg())
	b := newMachineCfg(t, "B", cfgB)

	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	if err := echoBytes(remote, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Arm the kill: the 20th write on B's (sole, wrapped) connection —
	// with coalescing, one write is a whole batch, so the kill lands with
	// calls both in flight on the wire and still queued behind the writer.
	fn.KillAfterWrites(20)

	const goroutines = 64
	const callsEach = 50
	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		badErr   atomic.Value // first non-CommFailure error, if any
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				err := echoBytes(remote, []byte(fmt.Sprintf("g%d-call%d", g, i)))
				if err == nil {
					continue
				}
				if errors.Is(err, kernel.ErrCommFailure) {
					failures.Add(1)
					continue // redial path; later calls may succeed again
				}
				badErr.CompareAndSwap(nil, err)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pipelined calls hung after mid-batch connection kill")
	}
	if e := badErr.Load(); e != nil {
		t.Fatalf("call failed outside the comm-failure class: %v", e)
	}
	if failures.Load() == 0 {
		t.Fatal("kill never landed: no call observed a comm failure")
	}
	// The path must still be healthy after the redial.
	if err := echoBytes(remote, []byte("after")); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}

func echoSkel() stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		p, err := args.ReadBytes()
		if err != nil {
			return err
		}
		results.WriteBytes(p)
		return nil
	})
}

func TestSlowHandlerIsolation(t *testing.T) {
	// E20 acceptance: a blocking handler must not delay inline-eligible
	// calls — neither on its own connection nor on sibling connections —
	// because the inline fast path runs on the reader goroutine and the
	// blockers wait on goroutines of their own. Two calls get wedged on a
	// gated door, and echo traffic must keep flowing through the inline path
	// the whole time.
	cfgA := quickCfg()
	// A generous threshold makes promotion deterministic: loopback echo
	// always observes far under 5ms, so eight warm calls promote regardless
	// of scheduler jitter.
	cfgA.InlineThreshold = 5 * time.Millisecond
	a := newMachineCfg(t, "A", cfgA)
	cfgB := quickCfg()
	cfgB.CallTimeout = 30 * time.Second // the gated calls outlive the echo phase
	b := newMachineCfg(t, "B", cfgB)

	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)

	entered := make(chan struct{}, 2)
	gate := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
	slow := stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	slowObj, _ := singleton.Export(a.env, stressEchoMT, slow, nil)
	a.srv.PublishRoot("slow", slowObj)

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	remoteSlow, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "slow", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the echo door past the promotion streak: these calls are
	// spawned, and their observed durations promote the door to inline
	// eligibility.
	for i := 0; i < 4*dispatch.PromoteStreak; i++ {
		if err := echoBytes(remote, []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}

	// Wedge two calls in the slow door's handler.
	var slowErrs sync.WaitGroup
	for i := 0; i < 2; i++ {
		slowErrs.Add(1)
		go func() {
			defer slowErrs.Done()
			if err := stubs.Call(remoteSlow, 0, nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	<-entered
	<-entered

	// With the blockers parked, the echo calls must all be served inline.
	inline0 := scstats.GaugeFor("dispatch.inline_hits").Value()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := echoBytes(remote, []byte("same-conn")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("inline call alongside a blocking handler: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inline-eligible calls stuck behind a blocking handler on the same connection")
	}

	// A sibling connection must be isolated the same way.
	c := newMachineCfg(t, "C", quickCfg())
	remoteC, err := c.srv.ImportRootObject(c.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 20; i++ {
			if err := echoBytes(remoteC, []byte("sibling-conn")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("inline call from a sibling connection: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling connection's calls stuck behind another peer's blocking handler")
	}

	// The promoted door stays promoted beside the blockers: every one of
	// the 40 calls is an inline hit, none demoted and spawned. (The reader
	// counts a hit after it has sent the reply, so the last one may land a
	// moment after the caller has returned; a spawned call never counts.)
	hits := func() int64 { return scstats.GaugeFor("dispatch.inline_hits").Value() - inline0 }
	for deadline := time.Now().Add(time.Second); hits() < 40 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if d := hits(); d < 40 {
		t.Fatalf("inline fast path served %d of the 40 calls made beside the blocked handlers, want all 40", d)
	}

	close(gate)
	slowErrs.Wait()
}

func TestColdDialSingleflight(t *testing.T) {
	// Concurrent calls to a cold address must share one dial, not
	// stampede: one flight dials, the rest ride it. And the shared
	// outcome must be reported to the breaker exactly once — a waiter
	// that loses the race must not report a failed dial (proto.dialed)
	// for a dial that actually succeeded.
	fn := faultnet.New()
	var dials atomic.Int32
	cfgB := quickCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(func(addr string) (sock.Stream, error) {
		dials.Add(1)
		return sock.Dial(addr)
	})}
	a := newMachineCfg(t, "A", quickCfg())
	b := newMachineCfg(t, "B", cfgB)

	ctr, _, _ := exportCounter(t, a, "counter")
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	_ = ctr

	// Kill the import connection and wait until B prunes it, so the next
	// call finds the address cold.
	fn.CloseAll()
	waitFor(t, 2*time.Second, "dead conn pruned", func() bool {
		l := &b.srv.record(a.srv.Addr()).link
		return l.live(roleCall) == nil && l.live(roleBulk) == nil
	})
	dials.Store(0)

	const callers = 32
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sctest.Get(remote)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d concurrent cold calls made %d dials, want 1", callers, got)
	}
	// The successful shared dial must have left the breaker closed.
	b.srv.mu.Lock()
	p := b.srv.proto.peer(a.srv.Addr())
	state := p.state
	b.srv.mu.Unlock()
	if state != breakerClosed {
		t.Fatalf("breaker state after shared successful dial = %d, want closed", state)
	}
}

func TestCoalescingCountersMove(t *testing.T) {
	// Pipelined traffic must register on the data-path gauges: flushes
	// happen, and (since frames/flush ≥ 1) the coalesced-frames counter
	// keeps pace. The send-queue depth gauge must drain back to zero.
	flushes0, frames0 := gFlushes.Value(), gFramesCoalesced.Value()
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := echoBytes(remote, []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	flushes, frames := gFlushes.Value()-flushes0, gFramesCoalesced.Value()-frames0
	if flushes <= 0 || frames < flushes {
		t.Fatalf("gauges after 400 pipelined calls: flushes=%d frames=%d, want flushes>0 and frames>=flushes", flushes, frames)
	}
	waitFor(t, 2*time.Second, "send queues drained", func() bool {
		return gSendQueueDepth.Value() == 0
	})
}

// ---------------------------------------------------------------------
// Allocation regression guards.

// discardConn is a sock.Stream that swallows writes and never produces
// reads, isolating the client-side call machinery from a real peer (whose
// read loop would allocate and pollute the global AllocsPerRun count).
type discardConn struct {
	once sync.Once
	ch   chan struct{}
}

func newDiscardConn() *discardConn { return &discardConn{ch: make(chan struct{})} }

func (d *discardConn) Read(p []byte) (int, error) {
	<-d.ch
	return 0, os.ErrClosed
}
func (d *discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (d *discardConn) Close() error                     { d.once.Do(func() { close(d.ch) }); return nil }
func (d *discardConn) SetDeadline(time.Time) error      { return nil }
func (d *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (d *discardConn) SetWriteDeadline(time.Time) error { return nil }

func TestPingPathAllocs(t *testing.T) {
	// The heartbeat ping is the smallest frame the data path carries;
	// steady state it must not allocate at all (pooled buffer in, written
	// by its sender, pooled buffer out).
	c := newConn(newDiscardConn())
	t.Cleanup(func() { c.fail(errConnDead) })
	n := testing.AllocsPerRun(300, func() {
		p := buffer.Get(1)
		p.WriteByte(msgPing)
		if err := c.send(p); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0.5 {
		t.Fatalf("ping send path allocates %.1f objects/op, want 0", n)
	}
}

func TestSmallCallClientPathAllocs(t *testing.T) {
	// ISSUE 3 acceptance (tightened by E21): the client-side machinery of
	// a small call — frame assembly, request registration, send, reply
	// delivery, future recycling — must allocate at most 4
	// heap objects per call. The reply is canned (delivered as the read
	// loop would) so only the client path is measured.
	c := newConn(newDiscardConn())
	t.Cleanup(func() { c.fail(errConnDead) })
	canned := buffer.FromParts(nil, nil)
	n := testing.AllocsPerRun(300, func() {
		payload := buffer.Get(64)
		payload.WriteByte(msgCall)
		id, fut := c.register()
		payload.WriteUint64(id)
		payload.WriteUint64(7) // descriptor key
		putInfoHeader(payload, nil)
		if err := c.send(payload); err != nil {
			t.Fatal(err)
		}
		c.deliver(id, canned)
		<-fut.ready
		if fut.state.Load() != futDelivered {
			t.Fatal("future not delivered")
		}
		fut.reply = nil
		putFuture(fut)
	})
	if n > 4 {
		t.Fatalf("small-call client path allocates %.1f objects/op, want <= 4", n)
	}
}

func TestSmallCallRoundTripAllocs(t *testing.T) {
	// The full both-endpoints round trip over loopback TCP: the stub,
	// the client machinery, both read loops, the server-side dispatch and
	// the reply. The measured steady state is 1 (the stub's core.Call;
	// it was 10 before request and reply frames were pooled); the bound
	// leaves headroom for a heartbeat landing inside the run. It exists
	// to catch a regression that reintroduces per-call garbage on either
	// side; TestServedNullCallAllocs pins the server half at zero.
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr, _, _ := exportCounter(t, a, "counter")
	_ = ctr
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Get(remote); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := sctest.Get(remote); err != nil {
			t.Fatal(err)
		}
	})
	if n > 3 {
		t.Fatalf("small-call round trip allocates %.1f objects/op, want <= 3", n)
	}
}
