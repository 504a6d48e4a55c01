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
	"repro/internal/sctest"
)

// liveStripes counts the non-dead stripes srv holds toward addr.
func liveStripes(srv *Server, addr string) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	ss, ok := srv.conns[addr]
	if !ok {
		return 0
	}
	n := 0
	for _, c := range ss.live() {
		if !c.isDead() {
			n++
		}
	}
	return n
}

func TestStripesShareOneSessionAndLease(t *testing.T) {
	// E21 satellite: N stripes to one peer are one session (the lease
	// identity is the peer process, not the socket) — sessions_live is
	// unchanged by striping while stripes_live counts the sockets.
	base := gStripes.Value()
	a := newMachineCfg(t, "A", quickCfg())
	cfgB := quickCfg()
	cfgB.Stripes = 4
	b := newMachineCfg(t, "B", cfgB)
	_, _, _ = exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}
	if got := liveStripes(b.srv, a.srv.Addr()); got != 4 {
		t.Fatalf("client holds %d live stripes, want 4", got)
	}
	if got := gStripes.Value() - base; got != 4 {
		t.Fatalf("netd.stripes_live rose by %d, want 4", got)
	}
	if got := a.srv.Sessions(); got != 1 {
		t.Fatalf("exporter sees %d sessions for 4 stripes, want 1", got)
	}
	// All four stripes must be bound to the one session on the exporter.
	// (The exporter binds a stripe when its reader gets to that stripe's
	// hello, which the reply to a call on another stripe may overtake.)
	bound := func() (n int) {
		a.srv.mu.Lock()
		defer a.srv.mu.Unlock()
		for _, sess := range a.srv.sessions {
			n = len(sess.conns)
		}
		return n
	}
	for deadline := time.Now().Add(time.Second); bound() != 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := bound(); got != 4 {
		t.Fatalf("exporter session binds %d conns, want 4", got)
	}
}

func TestStripePickRouting(t *testing.T) {
	// Unit coverage for the routing kernel: bulk traffic is steered to
	// the dedicated last stripe, small calls stay off it, and a dead
	// stripe is skipped in favor of any live one.
	s := &Server{}
	mk := func() *conn { return s.newConn(newDiscardConn()) }
	c0, c1, c2 := mk(), mk(), mk()
	t.Cleanup(func() {
		for _, c := range []*conn{c0, c1, c2} {
			c.fail(errConnDead)
		}
	})
	conns := []*conn{c0, c1, c2}
	ss := &stripeSet{addr: "x", want: 3}
	ss.conns.Store(&conns)

	if got := ss.pick(true); got != c2 {
		t.Fatal("bulk call not steered to the dedicated last stripe")
	}
	for i := 0; i < 64; i++ {
		if got := ss.pick(false); got == c2 {
			t.Fatal("small call routed onto the bulk stripe while others live")
		}
	}
	victim := ss.pick(false)
	victim.fail(errConnDead)
	if got := ss.pick(false); got == nil || got == victim || got.isDead() {
		t.Fatalf("pick did not skip the dead stripe (got %p, victim %p)", got, victim)
	}
	for _, c := range conns {
		c.fail(errConnDead)
	}
	if got := ss.pick(false); got != nil {
		t.Fatal("pick returned a conn from an all-dead set")
	}
}

func TestStripeKillSurvivorsServeAndHeal(t *testing.T) {
	// ISSUE 9 acceptance: faultnet kills one stripe under 64-goroutine
	// load — calls caught on the dead stripe fail retryable
	// (kernel.ErrCommFailure), the surviving stripes keep serving
	// without interruption, and the redial heals the set back to its
	// configured width.
	fn := faultnet.New()
	a := newMachineCfg(t, "A", quickCfg())
	cfgB := quickCfg()
	cfgB.Stripes = 3
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)
	_, _, _ = exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveStripes(b.srv, a.srv.Addr()); got != 3 {
		t.Fatalf("client holds %d live stripes, want 3", got)
	}

	const callers = 64
	var (
		wg          sync.WaitGroup
		stop        = make(chan struct{})
		killed      = make(chan struct{})
		failedCalls atomic.Int64
		okAfterKill atomic.Int64
		badErr      atomic.Value // first wrongly-typed error, if any
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := sctest.Get(remote)
				if err != nil {
					// Every failure in this scenario must be in the
					// retryable communication class — that is the
					// subcontract-facing contract for a lost stripe.
					if !errors.Is(err, kernel.ErrCommFailure) || !core.Retryable(err) {
						badErr.CompareAndSwap(nil, err)
					}
					failedCalls.Add(1)
					continue
				}
				select {
				case <-killed:
					okAfterKill.Add(1)
				default:
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the load spread over the stripes
	if !fn.KillOne() {
		t.Fatal("no live wrapped conn to kill")
	}
	close(killed)
	waitFor(t, 2*time.Second, "survivor stripes serve after the kill", func() bool {
		return okAfterKill.Load() >= callers
	})
	waitFor(t, 3*time.Second, "stripe set heals to full width", func() bool {
		return liveStripes(b.srv, a.srv.Addr()) == 3
	})
	close(stop)
	wg.Wait()
	if e := badErr.Load(); e != nil {
		t.Fatalf("stripe loss produced a non-retryable/non-comm error: %v", e)
	}
	if got := a.srv.Sessions(); got != 1 {
		t.Fatalf("exporter sees %d sessions after heal, want 1", got)
	}
}
