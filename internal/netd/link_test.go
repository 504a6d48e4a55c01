package netd

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/kernel"
	"repro/internal/sock"
	"repro/internal/subcontracts/singleton"
)

// Tests for the per-peer link (link.go): two connections with fixed roles,
// each dialled on demand, one session over both.

// linkPair starts an exporter A and an importer B (configured by cfgB),
// publishes an echo object on A and imports it on B — which dials B's call
// connection. It returns both machines, the proxy and B's link toward A.
func linkPair(t *testing.T, cfgB Config) (a, b *machine, remote *core.Object, l *link) {
	t.Helper()
	a = newMachineCfg(t, "A", quickCfg())
	b = newMachineCfg(t, "B", cfgB)
	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, remote, &b.srv.record(a.srv.Addr()).link
}

// record is s's record of addr (nil if it has none).
func (s *Server) record(addr string) *peerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proto.peers[addr]
}

// countingDialer wraps fn's dialer so every dial attempt — refused ones
// included — is counted.
func countingDialer(fn *faultnet.Net, dials *atomic.Int32) Transport {
	dial := fn.Dialer(nil)
	return FuncTransport{DialFunc: func(addr string) (sock.Stream, error) {
		dials.Add(1)
		return dial(addr)
	}}
}

// sent is how many requests have been registered on role r's connection
// (request ids are per connection), 0 if the role was never dialled.
func sent(l *link, r role) uint64 {
	if c := l.conns[r].Load(); c != nil {
		return c.nextID.Load()
	}
	return 0
}

// bulkBurst issues 64 concurrent 16 KiB echoes, all of which must succeed.
func bulkBurst(t *testing.T, remote *core.Object) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = echoBytes(remote, bigPayload(16<<10))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent bulk caller %d: %v", i, err)
		}
	}
}

// boundConns is how many connections the exporter has bound to its (one)
// peer session.
func boundConns(srv *Server) (n int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, sess := range srv.proto.sessions {
		n += sess.conns
	}
	return n
}

func TestLinkRoutesBySizeOverOneSession(t *testing.T) {
	// A peer that only ever sends small requests holds one socket; its
	// first request of BulkThreshold bytes or more dials the second. From
	// then on large requests ride the bulk connection and small ones never
	// do. Both sockets are one session and one lease on the exporter.
	conns0 := gConns.Value()
	a, b, remote, l := linkPair(t, quickCfg())
	threshold := b.srv.cfg.BulkThreshold

	for i := 0; i < 20; i++ {
		if err := echoBytes(remote, bigPayload(threshold-64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sent(l, roleCall); got != 21 { // the root import + 20 calls
		t.Fatalf("call connection carried %d requests, want 21", got)
	}
	if l.conns[roleBulk].Load() != nil {
		t.Fatal("bulk connection dialled by a peer that sent only small requests")
	}
	// Both ends of the one socket are in this process.
	if got := gConns.Value() - conns0; got != 2 {
		t.Fatalf("netd.conns_live rose by %d for one socket, want 2 (its two ends)", got)
	}
	if got := boundConns(a.srv); got != 1 {
		t.Fatalf("exporter session binds %d conns, want 1", got)
	}

	if err := echoBytes(remote, bigPayload(threshold)); err != nil {
		t.Fatal(err)
	}
	if got := sent(l, roleBulk); got != 1 {
		t.Fatalf("bulk connection carried %d requests after the first large one, want 1", got)
	}
	for i := 0; i < 20; i++ {
		if err := echoBytes(remote, []byte("small")); err != nil {
			t.Fatal(err)
		}
		if err := echoBytes(remote, bigPayload(64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if call, bulk := sent(l, roleCall), sent(l, roleBulk); call != 41 || bulk != 21 {
		t.Fatalf("requests by connection: call %d, bulk %d; want 41 and 21", call, bulk)
	}
	if got := gConns.Value() - conns0; got != 4 {
		t.Fatalf("netd.conns_live rose by %d for two sockets, want 4", got)
	}
	if got := a.srv.Sessions(); got != 1 {
		t.Fatalf("exporter sees %d sessions for two connections, want 1", got)
	}
	// The exporter binds a connection when its reader reaches that
	// connection's hello, which the reply to the call may overtake.
	waitFor(t, time.Second, "exporter binds both connections to the session", func() bool {
		return boundConns(a.srv) == 2
	})
}

func TestFirstBulkCallsShareOneDial(t *testing.T) {
	// 64 concurrent first bulk calls ride one dial (singleflight), and its
	// success leaves the breaker closed.
	fn := faultnet.New()
	var dials atomic.Int32
	cfgB := quickCfg()
	cfgB.Transport = countingDialer(fn, &dials)
	a, b, remote, l := linkPair(t, cfgB)
	dials.Store(0)

	bulkBurst(t, remote)
	if got := dials.Load(); got != 1 {
		t.Fatalf("64 concurrent first bulk calls made %d dials, want 1", got)
	}
	if got := sent(l, roleBulk); got != 64 {
		t.Fatalf("bulk connection carried %d requests, want 64", got)
	}
	b.srv.mu.Lock()
	state := b.srv.proto.peer(a.srv.Addr()).state
	b.srv.mu.Unlock()
	if state != breakerClosed {
		t.Fatalf("breaker state after the shared dial = %d, want closed", state)
	}
}

func TestRefusedBulkDialBorrowsCallConnection(t *testing.T) {
	// A bulk dial that is refused must not fail the call: it rides the call
	// connection. 64 concurrent callers still make one dial and report one
	// failure to the breaker, which then spaces out the redials; once dials
	// succeed again the bulk connection comes up.
	fn := faultnet.New()
	var dials atomic.Int32
	cfgB := quickCfg()
	cfgB.BreakerBackoff, cfgB.BreakerMaxBackoff = 500*time.Millisecond, 500*time.Millisecond
	cfgB.Transport = countingDialer(fn, &dials)
	a, b, remote, l := linkPair(t, cfgB)
	dials.Store(0)
	fn.RefuseDials(true)

	bulkBurst(t, remote) // a failure here is a caller that did not borrow the call connection
	if got := dials.Load(); got != 1 {
		t.Fatalf("64 concurrent bulk calls made %d refused dials, want 1", got)
	}
	if got := sent(l, roleCall); got != 65 { // the root import + 64 borrowed
		t.Fatalf("call connection carried %d requests, want 65", got)
	}
	b.srv.mu.Lock()
	p := b.srv.proto.peer(a.srv.Addr())
	state, backoff := p.state, p.backoff
	b.srv.mu.Unlock()
	if state != breakerOpen || backoff != cfgB.BreakerBackoff {
		t.Fatalf("breaker after one refused dial: state %d backoff %v, want open with the first backoff %v",
			state, backoff, cfgB.BreakerBackoff)
	}

	fn.RefuseDials(false)
	waitFor(t, 3*time.Second, "bulk connection dialled once dials succeed", func() bool {
		if err := echoBytes(remote, bigPayload(16<<10)); err != nil {
			t.Fatal(err)
		}
		return l.live(roleBulk) != nil
	})
}

func TestKillOneConnectionOtherRoleServes(t *testing.T) {
	// Under 64-goroutine load faultnet kills one of the link's two
	// connections. Only calls of the killed connection's role may fail, all
	// in the retryable kernel.ErrCommFailure class; the other role serves
	// throughout; the killed role's next call redials; the exporter still
	// sees one session; and nothing is left counted in netd.conns_live.
	conns0 := gConns.Value()
	fn := faultnet.New()
	cfgB := quickCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	a, b, remote, l := linkPair(t, cfgB)
	if err := echoBytes(remote, bigPayload(16<<10)); err != nil {
		t.Fatal(err)
	}
	before := [2]*conn{l.live(roleCall), l.live(roleBulk)}
	if before[roleCall] == nil || before[roleBulk] == nil || before[roleCall] == before[roleBulk] {
		t.Fatalf("link holds %p and %p, want two distinct live connections", before[roleCall], before[roleBulk])
	}

	var (
		wg          sync.WaitGroup
		stop        = make(chan struct{})
		killed      = make(chan struct{})
		failed      [2]atomic.Int64 // by role
		okAfterKill [2]atomic.Int64
		badErr      atomic.Value // first wrongly-typed error, if any
	)
	payloads := [2][]byte{roleCall: []byte("small"), roleBulk: bigPayload(16 << 10)}
	callers := [2]int64{roleCall: 48, roleBulk: 16}
	for r := range payloads {
		for i := int64(0); i < callers[r]; i++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := echoBytes(remote, payloads[r]); err != nil {
						if !errors.Is(err, kernel.ErrCommFailure) || !core.Retryable(err) {
							badErr.CompareAndSwap(nil, err)
						}
						failed[r].Add(1)
						continue
					}
					select {
					case <-killed:
						okAfterKill[r].Add(1)
					default:
					}
				}
			}(r)
		}
	}
	time.Sleep(50 * time.Millisecond) // let both connections fill with calls
	if !fn.KillOne() {
		t.Fatal("no live wrapped conn to kill")
	}
	close(killed)
	waitFor(t, 3*time.Second, "both roles serve after the kill", func() bool {
		return okAfterKill[roleCall].Load() >= callers[roleCall] && okAfterKill[roleBulk].Load() >= callers[roleBulk]
	})
	close(stop)
	wg.Wait()
	if e := badErr.Load(); e != nil {
		t.Fatalf("connection loss produced a non-retryable/non-comm error: %v", e)
	}
	victim := roleCall
	if before[roleBulk].isDead() {
		victim = roleBulk
	}
	if !before[victim].isDead() || before[1-victim].isDead() {
		t.Fatalf("after KillOne: call dead=%v bulk dead=%v, want exactly one", before[roleCall].isDead(), before[roleBulk].isDead())
	}
	if n := failed[1-victim].Load(); n != 0 {
		t.Fatalf("%d calls of the surviving role failed (killed role %d)", n, victim)
	}
	if l.live(1-victim) != before[1-victim] {
		t.Fatal("the surviving connection was replaced")
	}
	if c := l.live(victim); c == nil || c == before[victim] {
		t.Fatalf("killed role not redialled by its next call (holds %p, killed %p)", c, before[victim])
	}
	if got := a.srv.Sessions(); got != 1 {
		t.Fatalf("exporter sees %d sessions after the redial, want 1", got)
	}
	_ = b.srv.Close()
	_ = a.srv.Close()
	waitFor(t, 2*time.Second, "netd.conns_live back at its baseline", func() bool {
		return gConns.Value() == conns0
	})
}

func TestCloseWithBulkDialInFlight(t *testing.T) {
	// Close while the first bulk call is still dialling: the call returns
	// promptly and the late-arriving connection is torn down, not leaked
	// (the suite's AssertQuiesced audits goroutines and netd.conns_live
	// returns to its baseline).
	conns0 := gConns.Value()
	fn := faultnet.New()
	cfgB := quickCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	a, b, remote, l := linkPair(t, cfgB)
	fn.SetDialDelay(100 * time.Millisecond) // < DialTimeout: the dial completes after Close
	done := make(chan error, 1)
	go func() { done <- echoBytes(remote, bigPayload(16<<10)) }()
	waitFor(t, time.Second, "bulk dial in flight", func() bool {
		b.srv.mu.Lock()
		defer b.srv.mu.Unlock()
		return l.dialing[roleBulk] != nil
	})
	_ = b.srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("bulk call succeeded across Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("bulk call hung across Close")
	}
	_ = a.srv.Close()
	waitFor(t, 2*time.Second, "netd.conns_live back at its baseline", func() bool {
		return gConns.Value() == conns0
	})
}
