package netd

import (
	"errors"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/kernel"
	"repro/internal/sctest"
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
		BreakerBackoff:    25 * time.Millisecond,
		BreakerMaxBackoff: 100 * time.Millisecond,
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
	k := kernel.New(name)
	srv, err := Start(k.NewDomain(name+"-netd"), addr, With(cfg))
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
	// export count returns to its pre-connection value within one grace
	// period, firing unreferenced notifications as if the remote
	// identifiers had been deleted.
	a := newMachineCfg(t, "A", quickCfg())
	b := newMachineCfg(t, "B", quickCfg())
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

	waitFor(t, 2*time.Second, "exports reclaimed", func() bool { return a.srv.Exports() == 0 })
	waitFor(t, 2*time.Second, "session expired", func() bool { return a.srv.Sessions() == 0 })
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never fired after lease expiry")
	}
}

func TestHeartbeatsKeepIdleSessionAlive(t *testing.T) {
	// The inverse of lease expiry: a healthy but idle peer must NOT have
	// its references reclaimed — heartbeats are its proof of life.
	a := newMachineCfg(t, "A", quickCfg())
	b := newMachineCfg(t, "B", quickCfg())
	ctr, _, _ := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * quickCfg().LeaseGrace) // idle well past the grace period
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("idle session lost its exports: %d, want 1", got)
	}
	if v, err := sctest.Add(remote, 1); err != nil || v != 1 {
		t.Fatalf("Add after long idle = %d, %v", v, err)
	}
	_ = ctr
}

func TestPartitionPoisonsImportsAndReclaimsExports(t *testing.T) {
	// A full partition (both directions severed, connections "up" at the
	// TCP level): the exporter must detect silence, kill the connection
	// and reclaim the peer's references; the importer must symmetrically
	// poison its proxies once its lease must be presumed lost — failing
	// fast in the retryable class — and recover after the partition heals.
	fn := faultnet.New()
	a := newMachineCfg(t, "A", quickCfg())
	cfgB := quickCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)
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

	// Exporter side: silence past grace reclaims B's references.
	waitFor(t, 3*time.Second, "exports reclaimed", func() bool { return a.srv.Exports() == 0 })
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never fired during partition")
	}

	// Importer side: the proxy ends up poisoned — fail fast, retryable,
	// and typed as a lease loss. (Early calls during detection may fail
	// with other comm errors; every one must be retryable.)
	var lastErr error
	waitFor(t, 3*time.Second, "proxy poisoned", func() bool {
		_, err := sctest.Get(remote)
		if err == nil {
			return false
		}
		lastErr = err
		if !core.Retryable(err) {
			t.Fatalf("partition-time error not retryable: %v", err)
		}
		return errors.Is(err, ErrLeaseExpired)
	})
	if !errors.Is(lastErr, kernel.ErrCommFailure) {
		t.Fatalf("poisoned proxy error = %v, want kernel.ErrCommFailure class", lastErr)
	}
	start := time.Now()
	if _, err := sctest.Get(remote); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("poisoned proxy call = %v, want ErrLeaseExpired", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("poisoned proxy took %v, want O(1)", elapsed)
	}

	// Heal: a fresh resolve recovers (the app-level pattern reconnectable
	// automates). The breaker may still be backing off briefly.
	fn.Heal()
	_, _, _ = exportCounter(t, a, "counter2")
	waitFor(t, 3*time.Second, "re-import after heal", func() bool {
		fresh, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter2", sctest.CounterMT)
		if err != nil {
			return false
		}
		v, err := sctest.Add(fresh, 5)
		return err == nil && v == 5
	})
}

func TestBreakerFailsFastAndRecovers(t *testing.T) {
	// Once a dial to a dead peer fails, further calls must not each pay a
	// dial timeout: the breaker is open and they fail in O(1). When the
	// peer returns, a half-open probe closes the breaker again.
	// Long lease grace on both sides: this test is about the breaker, so
	// neither poisoning (B) nor reclamation (A) may kick in underneath it.
	fn := faultnet.New()
	long := quickCfg()
	long.LeaseGrace = time.Minute
	a := newMachineCfg(t, "A", long)
	cfgB := long
	cfgB.BreakerBackoff = 500 * time.Millisecond // hold open for the fast-fail probe
	cfgB.BreakerMaxBackoff = 500 * time.Millisecond
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)
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

	// First call redials, fails, and opens the breaker.
	if _, err := sctest.Get(remote); err == nil {
		t.Fatal("call to unreachable peer succeeded")
	} else if !core.Retryable(err) {
		t.Fatalf("dial-failure error not retryable: %v", err)
	}
	// Subsequent call fails fast on the open breaker.
	start := time.Now()
	_, err = sctest.Get(remote)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second call = %v, want ErrBreakerOpen", err)
	}
	if !errors.Is(err, kernel.ErrCommFailure) || !core.Retryable(err) {
		t.Fatalf("breaker error badly typed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("open-breaker call took %v, want O(1)", elapsed)
	}

	// Peer returns; the half-open probe (after the 500ms backoff) closes
	// the breaker, the session is rejoined, and calls flow again.
	fn.RefuseDials(false)
	waitFor(t, 3*time.Second, "breaker closes after heal", func() bool {
		v, err := sctest.Get(remote)
		return err == nil && v == 1
	})
	if ctr.Value() != 1 {
		t.Fatalf("counter = %d, want 1", ctr.Value())
	}
}

func TestDeadPooledConnPrunedAndRedialled(t *testing.T) {
	// Pool hygiene: a dead connection must be removed from the dial pool
	// so the next call redials (and rejoins the same session) instead of
	// failing forever on a corpse.
	fn := faultnet.New()
	a := newMachineCfg(t, "A", quickCfg())
	cfgB := quickCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)
	ctr, _, _ := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		fn.CloseAll()
		// The kill may race the next call (which then fails retryably,
		// once); the redial must succeed well before lease grace.
		waitFor(t, time.Second, "call succeeds after redial", func() bool {
			_, err := sctest.Add(remote, 1)
			if err != nil && !core.Retryable(err) {
				t.Fatalf("round %d: non-retryable error: %v", round, err)
			}
			return err == nil
		})
	}
	if got := ctr.Value(); got < 4 {
		t.Fatalf("counter = %d, want >= 4", got)
	}
	if got := a.srv.Sessions(); got != 1 {
		t.Fatalf("sessions after redials = %d, want 1 (same instance rejoins)", got)
	}
}

func TestReleaseQueuedWhileDownThenReplayed(t *testing.T) {
	// Satellite: a release that cannot be sent (peer down) must not be
	// dropped — it is queued and replayed when the peer is reachable
	// again, draining the exporter's entry without waiting out the lease.
	fn := faultnet.New()
	long := quickCfg()
	long.LeaseGrace = time.Minute // reclaim/poisoning must NOT be the cleanup path here
	a := newMachineCfg(t, "A", long)
	cfgB := long
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)
	_, obj, unref := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	dropRoot(t, a, "counter", obj)

	fn.CloseAll()
	fn.RefuseDials(true)
	if err := remote.Consume(); err != nil { // unref → release → peer down → queued
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("exports while release queued = %d, want 1 (grace is a minute)", got)
	}

	fn.RefuseDials(false)
	waitFor(t, 3*time.Second, "queued release replayed", func() bool { return a.srv.Exports() == 0 })
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never fired after replay")
	}
}

func TestTruncatedFrameFailsCallThenRecovers(t *testing.T) {
	// A frame cut off mid-body kills the connection (the stream is
	// unparseable past it); the caller sees a retryable comm failure and
	// the next call runs over a fresh connection.
	fn := faultnet.New()
	a := newMachineCfg(t, "A", quickCfg())
	cfgB := quickCfg()
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)
	ctr, _, _ := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	fn.TruncateNextWrite()
	if _, err := sctest.Add(remote, 1); err == nil {
		t.Fatal("call over truncated frame succeeded")
	} else if !core.Retryable(err) {
		t.Fatalf("truncation error not retryable: %v", err)
	}
	waitFor(t, time.Second, "call succeeds after truncation", func() bool {
		_, err := sctest.Add(remote, 1)
		return err == nil
	})
	if ctr.Value() == 0 {
		t.Fatal("no call landed after recovery")
	}
}

func TestMidChainDeathFailsFastAndReclaims(t *testing.T) {
	// Satellite: proxy chain A→B→C (C calls a door on A through B's
	// re-export). Killing B must (1) make C's calls fail fast in the
	// retryable class and (2) drain A's exports — B's session held them —
	// within the grace period, firing A's unreferenced notification.
	a := newMachineCfg(t, "A", quickCfg())
	b := newMachineCfg(t, "B", quickCfg())
	c := newMachineCfg(t, "C", quickCfg())
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
	waitFor(t, 2*time.Second, "origin exports reclaimed", func() bool { return a.srv.Exports() == 0 })
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("origin unreferenced notification never fired")
	}
}

func TestRefusedDialIsRetryableAndBounded(t *testing.T) {
	// A dead address must cost one bounded dial attempt, not a hang.
	fn := faultnet.New()
	cfg := quickCfg()
	cfg.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfg)
	fn.RefuseDials(true)
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
}

func TestHungDialBoundedByDialTimeout(t *testing.T) {
	// A routing black hole (dial that never completes) is bounded by
	// DialTimeout, and the breaker then makes follow-up calls O(1).
	fn := faultnet.New()
	cfg := quickCfg()
	cfg.DialTimeout = 100 * time.Millisecond
	cfg.BreakerBackoff = 500 * time.Millisecond
	cfg.BreakerMaxBackoff = 500 * time.Millisecond
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
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "127.0.0.1:0", With(Config{HeartbeatInterval: time.Hour, LeaseGrace: time.Hour}))
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
	now := time.Now()
	srv.proto.connClosed(c, sess, nil, now)
	srv.settle()

	start := time.Now()
	srv.mu.Lock()
	srv.proto.tick(now.Add(time.Hour+time.Nanosecond), nil)
	srv.settle()
	took := time.Since(start)
	if srv.Exports() != 0 || srv.Sessions() != 0 || srv.dom.HandleCount() != 0 {
		t.Fatalf("after the reclaim: %d exports, %d sessions, %d handles", srv.Exports(), srv.Sessions(), srv.dom.HandleCount())
	}
	if took > 500*time.Millisecond {
		t.Fatalf("reclaiming %d exports took %v, want < 500ms", n, took)
	}
	t.Logf("reclaimed %d exports in %v", n, took)
}
