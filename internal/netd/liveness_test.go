package netd

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/subcontracts/reconnectable"
	"repro/internal/subcontracts/replicon"
	"repro/internal/subcontracts/singleton"
)

// Liveness tunings for tests: fast heartbeats and a short lease grace so
// partition detection and lease expiry land in tens of milliseconds.
func quickCfg() Config {
	return Config{
		CallTimeout:       2 * time.Second,
		DialTimeout:       150 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		LeaseGrace:        150 * time.Millisecond,
	}
}

// newMachineCfg is newMachine with explicit liveness configuration.
func newMachineCfg(t *testing.T, name string, cfg Config, libs ...func(*core.Registry) error) *machine {
	t.Helper()
	return newMachineAt(t, name, "127.0.0.1:0", cfg, libs...)
}

// newMachineAt is newMachineCfg listening on addr.
func newMachineAt(t *testing.T, name, addr string, cfg Config, libs ...func(*core.Registry) error) *machine {
	t.Helper()
	return newMachineOn(t, nil, name, addr, cfg, libs...)
}

// newMachineOn is newMachineAt on clk, or on the real clock if clk is nil.
func newMachineOn(t *testing.T, clk *manualClock, name, addr string, cfg Config, libs ...func(*core.Registry) error) *machine {
	t.Helper()
	k := kernel.New(name)
	start := Start
	if clk != nil {
		start = clk.start
	}
	srv, err := start(k.NewDomain(name+"-netd"), addr, With(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	libs = append([]func(*core.Registry) error{singleton.Register}, libs...)
	env, err := sctest.NewEnv(k, name+"-app", libs...)
	if err != nil {
		t.Fatal(err)
	}
	return &machine{k: k, srv: srv, env: env}
}

// exportCounter publishes a fresh counter on m under name, returning the
// skeleton state, the published object, and a channel closed when the
// counter's unreferenced notification fires.
func exportCounter(t *testing.T, m *machine, name string) (*sctest.Counter, *core.Object, chan struct{}) {
	t.Helper()
	ctr := &sctest.Counter{}
	unref := make(chan struct{})
	obj, _ := singleton.Export(m.env, sctest.CounterMT, ctr.Skeleton(), func() { close(unref) })
	m.srv.PublishRoot(name, obj)
	return ctr, obj, unref
}

// dropRoot withdraws name's root and consumes the local identifier, so
// only remote references keep the exported door alive (the precondition
// for asserting that lease expiry or release replay fires unreferenced).
func dropRoot(t *testing.T, m *machine, name string, obj *core.Object) {
	t.Helper()
	m.srv.PublishRoot(name, nil)
	if err := obj.Consume(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLeaseExpiryReclaimsExportsAfterPeerDeath(t *testing.T) {
	// ISSUE acceptance: after an ungraceful peer kill the exporter's
	// export count returns to its pre-connection value at the first tick
	// past one grace period, firing unreferenced notifications as if the
	// remote identifiers had been deleted.
	clk := newManualClock()
	a := clk.machine(t, "A")
	b := clk.machine(t, "B")
	_, obj, unref := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}
	// Drop the local identifiers so B's proxy holds the only reference.
	dropRoot(t, a, "counter", obj)

	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("exports before kill = %d, want 1", got)
	}
	if got := a.srv.Sessions(); got != 1 {
		t.Fatalf("sessions before kill = %d, want 1", got)
	}

	// Kill B without letting it release anything.
	b.srv.Close()
	until(t, "A sees B's connection close", func() bool { return connsOf(a.srv) == 0 })
	c0 := countNow()

	clk.Advance(defaults.LeaseGrace) // the grace, and not past it
	if a.srv.Exports() != 1 || a.srv.Sessions() != 1 {
		t.Fatalf("one grace after the kill: %d exports, %d sessions; want the lease held", a.srv.Exports(), a.srv.Sessions())
	}
	clk.Advance(tick)
	if a.srv.Exports() != 0 || a.srv.Sessions() != 0 {
		t.Fatalf("a tick past the grace: %d exports, %d sessions; want both reclaimed", a.srv.Exports(), a.srv.Sessions())
	}
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never fired after lease expiry")
	}
	c0.moved(t, "lease expiry", counted{"netd.leases_expired": 1, "netd.refs_reclaimed": 1, "netd.exports_live": -1, "netd.sessions_live": -1})
}

func TestHeartbeatsKeepIdleSessionAlive(t *testing.T) {
	// The inverse of lease expiry: a healthy but idle peer must NOT have
	// its references reclaimed — heartbeats are its proof of life.
	clk := newManualClock()
	a := clk.machine(t, "A")
	b := clk.machine(t, "B")
	exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	c0 := countNow()
	clk.idle(t, int(5*defaults.LeaseGrace/tick), a.srv, b.srv) // idle well past the grace period
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("idle session lost its exports: %d, want 1", got)
	}
	if connsOf(a.srv) != 1 || connsOf(b.srv) != 1 {
		t.Fatalf("idle connection cut: %d and %d live, want 1 and 1", connsOf(a.srv), connsOf(b.srv))
	}
	c0.moved(t, "five idle graces", nil)
	if v, err := sctest.Add(remote, 1); err != nil || v != 1 {
		t.Fatalf("Add after long idle = %d, %v", v, err)
	}
}

func TestHeartbeatPingCountsAsSentAtItsTick(t *testing.T) {
	// Mark, then stamp: a connection's stamps are the ticks that saw a
	// read or a write, and an idle ping counts as sent at the tick that
	// ordered it — not at the next one, which sees its write — so an idle
	// connection is pinged exactly every heartbeat interval, and one that
	// wrote is not pinged until a heartbeat after. The raw peer never
	// answers a ping.
	clk := newManualClock()
	a := clk.machine(t, "A")
	exportCounter(t, a, "counter")
	peer := dialRawPeer(t, a.srv.Addr())
	_ = peer.conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // a missing ping fails, not hangs
	var c *conn
	until(t, "A binds the peer's connection to its session", func() bool {
		a.srv.mu.Lock()
		defer a.srv.mu.Unlock()
		for c = range a.srv.allConns {
		}
		return c != nil && c.sess != nil
	})
	start := clk.now()
	// By tick: the ticks the stamps should name, and whether it pings.
	// The first tick stamps the handshake; a call the peer makes after
	// tick 5 — read, and answered with a write — is stamped at tick 6, so
	// the next ping is owed at tick 8, not 7.
	for i, want := range []struct {
		recv, send int
		ping       bool
	}{
		{1, 1, false}, {1, 1, false}, {1, 3, true}, {1, 3, false}, {1, 5, true},
		{6, 6, false}, {6, 6, false}, {6, 8, true}, {6, 8, false},
	} {
		if i == 5 {
			peer.importRoot("counter")
		}
		clk.Advance(tick)
		if want.ping {
			peer.next(msgPing)
		}
		// Nothing is left to write before the next tick — the ping, or a
		// reply whose write side the reader has not yet given up, which
		// would take the ping with it and mark it a tick late.
		until(t, "the connection's writes done", func() bool {
			c.wmu.Lock()
			defer c.wmu.Unlock()
			return !c.pinging.Load() && !c.writing && len(c.q) == 0
		})
		a.srv.mu.Lock()
		recv, send := c.recvAt, c.sendAt
		a.srv.mu.Unlock()
		if stamp := start.Add(time.Duration(want.recv) * tick).UnixNano(); recv != stamp {
			t.Fatalf("tick %d: receive stamp %v, want tick %d's %v", i+1, time.Unix(0, recv), want.recv, time.Unix(0, stamp))
		}
		if stamp := start.Add(time.Duration(want.send) * tick).UnixNano(); send != stamp {
			t.Fatalf("tick %d: send stamp %v, want tick %d's %v", i+1, time.Unix(0, send), want.send, time.Unix(0, stamp))
		}
	}
}

func TestPartitionPoisonsImportsAndReclaimsExports(t *testing.T) {
	// A full partition (both directions severed, connections "up" at the
	// TCP level): the exporter must detect silence, kill the connection
	// and reclaim the peer's references; the importer must symmetrically
	// poison its proxies once its lease must be presumed lost — failing
	// fast in the retryable class — and recover after the partition heals.
	// Both ends are fault-controlled, so neither side's sever waits for a
	// read already in the socket to return: from Partition on, nothing
	// crosses.
	fn := faultnet.New()
	clk := newManualClock()
	cfgA := virtualCfg()
	cfgA.Transport = FuncTransport{ListenFunc: fn.ListenFunc(nil)}
	a := newMachineOn(t, clk, "A", "127.0.0.1:0", cfgA)
	cfgB := virtualCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineOn(t, clk, "B", "127.0.0.1:0", cfgB)
	_, obj, unref := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}
	dropRoot(t, a, "counter", obj)

	fn.Partition()
	c0 := countNow()

	// The first tick stamps what both sides last heard; each judges the
	// other silent at the first tick past a grace after it.
	clk.Advance(tick + defaults.LeaseGrace)
	if connsOf(a.srv) != 1 || connsOf(b.srv) != 1 {
		t.Fatalf("silent for one grace: %d and %d connections, want the partitioned one on each side", connsOf(a.srv), connsOf(b.srv))
	}
	clk.Advance(tick)
	until(t, "both sides cut the silent connection", func() bool { return connsOf(a.srv) == 0 && connsOf(b.srv) == 0 })

	// A grace after the cut the exporter reclaims B's references and the
	// importer's lease is presumed lost: not at it.
	clk.Advance(defaults.LeaseGrace)
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("one grace after the cut: %d exports, want 1", got)
	}
	// A call now dials into the partition: its hello times out, and the
	// error is retryable — but not yet a lease loss.
	if _, err := sctest.Get(remote); err == nil || !core.Retryable(err) || errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("detection-time call = %v, want a retryable failure that is not a lease loss", err)
	}

	// A tick past it, both happen.
	clk.Advance(tick)
	if got := a.srv.Exports(); got != 0 {
		t.Fatalf("a tick past the grace: %d exports, want 0", got)
	}
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never fired during partition")
	}
	// The proxy is poisoned — fail fast, retryable, and typed as a lease
	// loss in the kernel.ErrCommFailure class.
	start := time.Now()
	_, err = sctest.Get(remote)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("poisoned proxy took %v, want O(1)", elapsed)
	}
	if !errors.Is(err, ErrLeaseExpired) || !errors.Is(err, kernel.ErrCommFailure) || !core.Retryable(err) {
		t.Fatalf("poisoned proxy call = %v, want a retryable ErrLeaseExpired in the kernel.ErrCommFailure class", err)
	}
	// Both sides expired the other's session; B's one dial opened its
	// breaker.
	c0.moved(t, "partition", counted{"netd.leases_expired": 2, "netd.refs_reclaimed": 1, "netd.breaker_opened": 1,
		"netd.exports_live": -1, "netd.sessions_live": -2})

	// Heal: a fresh resolve recovers (the app-level pattern reconnectable
	// automates), its dial the probe that closes the breaker.
	fn.Heal()
	exportCounter(t, a, "counter2")
	fresh, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter2", sctest.CounterMT)
	if err != nil {
		t.Fatalf("re-import after heal: %v", err)
	}
	if v, err := sctest.Add(fresh, 5); err != nil || v != 5 {
		t.Fatalf("Add after heal = %d, %v; want 5", v, err)
	}
}

func TestBreakerFailsFastAndRecovers(t *testing.T) {
	// Once a dial to a dead peer fails, further calls must not each pay a
	// dial timeout: the breaker is open and they fail in O(1) until the
	// instant its period ends. Then one half-open probe goes out: refused,
	// it reopens the breaker for twice as long; answered, it closes it.
	fn := faultnet.New()
	clk := newManualClock()
	a := clk.machine(t, "A")
	cfgB := virtualCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineOn(t, clk, "B", "127.0.0.1:0", cfgB)
	ctr, _, _ := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}

	fn.CloseAll()        // kill the live connection ungracefully
	fn.RefuseDials(true) // and keep the peer unreachable
	until(t, "B sees its connection die", func() bool { return connsOf(b.srv) == 0 })
	c0 := countNow()

	refused := func(when string) {
		t.Helper()
		if _, err := sctest.Get(remote); err == nil || !core.Retryable(err) || !strings.Contains(err.Error(), faultnet.ErrRefused.Error()) {
			t.Fatalf("%s: %v, want the retryable refusal of a dial", when, err)
		}
	}
	open := func(when string, until time.Time) {
		t.Helper()
		start := time.Now()
		_, err := sctest.Get(remote)
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Fatalf("%s: open-breaker call took %v, want O(1)", when, elapsed)
		}
		var ra *kernel.RetryAt
		if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, kernel.ErrCommFailure) || !core.Retryable(err) ||
			!errors.As(err, &ra) || !ra.At.Equal(until) {
			t.Fatalf("%s: %v, want a retryable ErrBreakerOpen that admits at %v", when, err, until)
		}
	}

	// The first call redials, is refused, and opens the breaker.
	t0 := clk.now()
	refused("first call to the unreachable peer")
	open("at once", t0.Add(breakerBackoff))
	clk.Advance(breakerBackoff - time.Nanosecond)
	open("the open period's last instant", t0.Add(breakerBackoff))
	clk.Advance(time.Nanosecond)
	refused("the probe at the period's end")
	t1 := t0.Add(breakerBackoff)
	open("after the refused probe", t1.Add(2*breakerBackoff))

	// The peer returns; the probe at the end of the doubled period closes
	// the breaker, the session is rejoined, and calls flow again.
	fn.RefuseDials(false)
	clk.Advance(2*breakerBackoff - time.Nanosecond)
	open("the doubled period's last instant", t1.Add(2*breakerBackoff))
	clk.Advance(time.Nanosecond)
	if v, err := sctest.Get(remote); err != nil || v != 1 {
		t.Fatalf("call at the doubled period's end = %d, %v; want 1", v, err)
	}
	if ctr.Value() != 1 || a.srv.Sessions() != 1 {
		t.Fatalf("counter %d, %d sessions at the exporter; want 1 and 1", ctr.Value(), a.srv.Sessions())
	}
	c0.moved(t, "two refused dials and an answered probe", counted{"netd.breaker_opened": 2, "netd.breaker_closed": 1})
}

func TestDeadPooledConnPrunedAndRedialled(t *testing.T) {
	// Pool hygiene: a dead connection must be removed from the dial pool
	// so the next call redials (and rejoins the same session) instead of
	// failing forever on a corpse.
	fn := faultnet.New()
	clk := newManualClock()
	a := clk.machine(t, "A")
	cfgB := virtualCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineOn(t, clk, "B", "127.0.0.1:0", cfgB)
	ctr, _, _ := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}

	c0 := countNow()
	for round := 0; round < 3; round++ {
		fn.CloseAll()
		// The kill may race the next call, which then fails retryably,
		// once; the one after it redials, with no time passing.
		for attempt := 0; ; attempt++ {
			_, err := sctest.Add(remote, 1)
			if err == nil {
				break
			}
			if !core.Retryable(err) || attempt == 1 {
				t.Fatalf("round %d, call %d after the kill: %v; want at most one retryable failure", round, attempt+1, err)
			}
		}
	}
	if got := ctr.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if got := a.srv.Sessions(); got != 1 {
		t.Fatalf("sessions after redials = %d, want 1 (same instance rejoins)", got)
	}
	c0.moved(t, "three kills and redials", nil)
}

func TestReleaseQueuedWhileDownThenReplayed(t *testing.T) {
	// Satellite: a release that cannot be sent (peer down) must not be
	// dropped — it is queued, and replayed by the first tick that reaches
	// the peer again, draining the exporter's entry without waiting out
	// the lease.
	fn := faultnet.New()
	clk := newManualClock()
	a := clk.machine(t, "A")
	cfgB := virtualCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineOn(t, clk, "B", "127.0.0.1:0", cfgB)
	_, obj, unref := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	dropRoot(t, a, "counter", obj)

	fn.CloseAll()
	fn.RefuseDials(true)
	until(t, "B sees its connection die", func() bool { return connsOf(b.srv) == 0 })
	c0 := countNow()
	if err := remote.Consume(); err != nil { // unref → release → peer down → queued
		t.Fatal(err)
	}
	queued := scstats.GaugeFor("netd.releases_queued")
	until(t, "the release queued", func() bool { return queued.Value()-c0["netd.releases_queued"] == 1 })

	// The next tick asks for the replay; its dial is refused, and the
	// release stays queued.
	clk.Advance(tick)
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("exports while release queued = %d, want 1", got)
	}
	c0.moved(t, "a refused replay", counted{"netd.breaker_opened": 1, "netd.releases_queued": 1})

	// The peer back, the tick after reaches it and replays the release.
	fn.RefuseDials(false)
	clk.Advance(tick)
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never fired after replay")
	}
	if got := a.srv.Exports(); got != 0 {
		t.Fatalf("exports after the replay = %d, want 0", got)
	}
	c0.moved(t, "the replay", counted{"netd.breaker_opened": 1, "netd.breaker_closed": 1, "netd.releases_replayed": 1, "netd.exports_live": -1})
}

func TestTruncatedFrameFailsCallThenRecovers(t *testing.T) {
	// A frame cut off mid-body kills the connection (the stream is
	// unparseable past it); the caller sees a retryable comm failure and
	// the next call runs over a fresh connection.
	fn := faultnet.New()
	clk := newManualClock()
	a := clk.machine(t, "A")
	cfgB := virtualCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineOn(t, clk, "B", "127.0.0.1:0", cfgB)
	ctr, _, _ := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	c0 := countNow()
	fn.TruncateNextWrite()
	if _, err := sctest.Add(remote, 1); err == nil {
		t.Fatal("call over truncated frame succeeded")
	} else if !core.Retryable(err) {
		t.Fatalf("truncation error not retryable: %v", err)
	}
	if v, err := sctest.Add(remote, 1); err != nil || v != 1 {
		t.Fatalf("call after the truncation = %d, %v; want 1 over a fresh connection", v, err)
	}
	if ctr.Value() != 1 {
		t.Fatalf("counter %d, want 1: the truncated call must not have run", ctr.Value())
	}
	c0.moved(t, "truncation and redial", nil)
}

func TestMidChainDeathFailsFastAndReclaims(t *testing.T) {
	// Satellite: proxy chain A→B→C (C calls a door on A through B's
	// re-export). Killing B must (1) make C's calls fail fast in the
	// retryable class and (2) drain A's exports — B's session held them —
	// at the first tick past the grace, firing A's unreferenced
	// notification.
	clk := newManualClock()
	a := clk.machine(t, "A")
	b := clk.machine(t, "B")
	c := clk.machine(t, "C")
	_, obj, unref := exportCounter(t, a, "counter")

	viaB, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	b.srv.PublishRoot("counter", viaB)
	viaC, err := c.srv.ImportRootObject(c.env, b.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(viaC, 3); err != nil || v != 3 {
		t.Fatalf("chained Add = %d, %v", v, err)
	}
	dropRoot(t, a, "counter", obj)

	b.srv.Close() // mid-chain death

	start := time.Now()
	_, err = sctest.Get(viaC)
	if err == nil {
		t.Fatal("call through dead middle machine succeeded")
	}
	if !core.Retryable(err) {
		t.Fatalf("mid-chain death error not retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("mid-chain death took %v to surface", elapsed)
	}

	// A reclaims the export B's session held; the release cascade reaches
	// the origin even though only B ever talked to A.
	until(t, "A and C see B's connections close", func() bool { return connsOf(a.srv) == 0 && connsOf(c.srv) == 0 })
	c0 := countNow()
	clk.Advance(defaults.LeaseGrace)
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("one grace after B's death: %d origin exports, want 1", got)
	}
	clk.Advance(tick)
	if got := a.srv.Exports(); got != 0 {
		t.Fatalf("a tick past the grace: %d origin exports, want 0", got)
	}
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("origin unreferenced notification never fired")
	}
	// A and C both expire B's session; only A's held references.
	c0.moved(t, "B's leases", counted{"netd.leases_expired": 2, "netd.refs_reclaimed": 1, "netd.exports_live": -1, "netd.sessions_live": -2})
}

func TestRefusedDialIsRetryableAndBounded(t *testing.T) {
	// A dead address must cost one bounded dial attempt, not a hang.
	fn := faultnet.New()
	clk := newManualClock()
	cfg := virtualCfg()
	cfg.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineOn(t, clk, "B", "127.0.0.1:0", cfg)
	fn.RefuseDials(true)
	c0 := countNow()
	start := time.Now()
	_, err := b.srv.ImportRootObject(b.env, "127.0.0.1:1", "x", sctest.CounterMT)
	if err == nil {
		t.Fatal("import from refused address succeeded")
	}
	if !core.Retryable(err) {
		t.Fatalf("refused dial not retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("refused dial took %v", elapsed)
	}
	c0.moved(t, "a refused dial", counted{"netd.breaker_opened": 1})
}

func TestHungDialBoundedByDialTimeout(t *testing.T) {
	// A routing black hole (dial that never completes) is bounded by
	// DialTimeout, and the breaker then makes follow-up calls O(1).
	fn := faultnet.New()
	cfg := quickCfg()
	cfg.DialTimeout = 100 * time.Millisecond
	cfg.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfg)
	fn.SetDialDelay(5 * time.Second)
	start := time.Now()
	_, err := b.srv.ImportRootObject(b.env, "127.0.0.1:1", "x", sctest.CounterMT)
	if err == nil || !core.Retryable(err) {
		t.Fatalf("hung dial = %v, want retryable failure", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hung dial took %v, want ~DialTimeout", elapsed)
	}
	start = time.Now()
	if _, err := b.srv.ImportRootObject(b.env, "127.0.0.1:1", "x", sctest.CounterMT); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("follow-up = %v, want ErrBreakerOpen", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("open-breaker import took %v, want O(1)", elapsed)
	}
}

func TestReclaimManyExports(t *testing.T) {
	// One session holding 20,000 exports is reclaimed in one sweep, handles
	// deleted. Removing an entry finds its byDoor slot through the door ID
	// it keeps; a scan of byDoor per entry made this O(n²) under Server.mu
	// (EXPERIMENTS E33: 1.9 s before).
	const n = 20_000
	clk := newManualClock()
	k := kernel.New("m")
	srv, err := clk.start(k.NewDomain("netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	app := k.NewDomain("app")
	proc := func(req *buffer.Buffer) (*buffer.Buffer, error) { return req, nil }
	c := &conn{} // a peer's connection, as far as the control plane knows
	srv.mu.Lock()
	sess, _ := srv.proto.hello(c, nil, 7, 0, "")
	for range n {
		h, _ := app.CreateDoor(proc, nil)
		ref, _ := app.RefOf(h)
		_ = app.DeleteDoor(h)
		srv.proto.exported(sess, ref.DoorID(), srv.dom.AdoptRef(ref))
	}
	srv.proto.connClosed(c, sess, nil, clk.now())
	srv.settle()

	clk.Advance(defaults.LeaseGrace)
	if got := srv.Exports(); got != n {
		t.Fatalf("one grace after the close: %d exports, want %d", got, n)
	}
	c0 := countNow()
	start := time.Now()
	clk.Advance(tick)
	took := time.Since(start)
	if srv.Exports() != 0 || srv.Sessions() != 0 || srv.dom.HandleCount() != 0 {
		t.Fatalf("after the reclaim: %d exports, %d sessions, %d handles", srv.Exports(), srv.Sessions(), srv.dom.HandleCount())
	}
	c0.moved(t, "the reclaim", counted{"netd.leases_expired": 1, "netd.refs_reclaimed": n, "netd.exports_live": -n, "netd.sessions_live": -1})
	if took > 500*time.Millisecond {
		t.Fatalf("reclaiming %d exports took %v, want < 500ms", n, took)
	}
	t.Logf("reclaimed %d exports in %v", n, took)
}

func TestCallWithoutDeadlineEndsAtLeaseLoss(t *testing.T) {
	// A call with no deadline through a retrying subcontract, against a
	// peer that never comes back, waits on the breaker's admit times until
	// the lease is lost, and then ends in an error instead of hanging. The
	// lease lapses LeaseGrace after the connection died, seen within a
	// heartbeat; the call ends within the breaker period that straddles
	// that moment, plus the subcontract's short retries on the poisoned
	// proxies.
	cfg := quickCfg()
	lapse := cfg.LeaseGrace + cfg.HeartbeatInterval
	var opened time.Duration
	for p := breakerBackoff; opened < lapse; p = min(2*p, breakerMaxBackoff) {
		opened += p
	}
	bound := opened + time.Second

	for _, tc := range []struct {
		name    string
		publish func(t *testing.T, a *machine) // publishes root "svc" on a
		prepare func(t *testing.T, a, b *machine)
		want    error
	}{
		{"replicon", func(t *testing.T, a *machine) {
			env, err := sctest.NewEnv(a.k, "replica", singleton.Register, replicon.Register)
			if err != nil {
				t.Fatal(err)
			}
			g := replicon.NewGroup()
			g.Join(env, "r1", (&sctest.Counter{}).Skeleton())
			a.srv.PublishRoot("svc", g.Export(a.env, sctest.CounterMT))
		}, nil, ErrLeaseExpired},
		{"reconnectable", func(t *testing.T, a *machine) {
			ns := naming.NewServer(a.env)
			a.srv.PublishRoot("naming", ns.Object())
			cp, err := ns.Object().Copy()
			if err != nil {
				t.Fatal(err)
			}
			obj, _, err := reconnectable.Export(a.env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), "svc", naming.Context{Obj: cp})
			if err != nil {
				t.Fatal(err)
			}
			a.srv.PublishRoot("svc", obj)
		}, func(t *testing.T, a, b *machine) {
			ctx, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "naming", naming.ContextMT)
			if err != nil {
				t.Fatal(err)
			}
			b.env.Set(reconnectable.ContextVar, ctx)
		}, reconnectable.ErrGaveUp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			libs := []func(*core.Registry) error{replicon.Register, reconnectable.Register}
			a := newMachineCfg(t, "A", cfg, libs...)
			b := newMachineCfg(t, "B", cfg, libs...)
			tc.publish(t, a)
			if tc.prepare != nil {
				tc.prepare(t, a, b)
			}
			remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "svc", sctest.CounterMT)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sctest.Add(remote, 1); err != nil {
				t.Fatal(err)
			}

			_ = a.srv.Kill() // and A never returns
			start := time.Now()
			done := make(chan error, 1)
			go func() {
				_, err := sctest.Get(remote)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("call on a dead peer = %v, want %v", err, tc.want)
				}
				t.Logf("ended after %v (bound %v): %v", time.Since(start), bound, err)
			case <-time.After(bound):
				t.Fatalf("call on a dead peer still running after %v", bound)
			}
		})
	}
}
