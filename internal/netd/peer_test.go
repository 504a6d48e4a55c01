package netd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

// Tests for the record netd keeps per peer address (peerState): one
// connection count over both dial directions drives its clock, a restarted
// peer moves its epoch on, and it is forgotten once nothing needs it.

func TestProtoAcceptedHelloStopsTheClock(t *testing.T) {
	// A peer that dialled us, dropped and dialled again within the grace
	// has a live session: the record of its address must not lapse, or
	// the proxies we hold from it fail while it is up. The clock used to
	// be stopped only by a dial of ours.
	r := newRig(t)
	c, sess, p := r.helloFrom(nil, 7, "x:1")
	r.m.connClosed(c, sess, p, r.now)
	r.now = r.now.Add(time.Second)
	c, sess, _ = r.helloFrom(nil, 7, "x:1")
	for i := range 30 {
		r.tick(time.Second, r.stamp(c, sess, time.Second, 0, 0))
		if p.lapsed || p.epoch.Load() != 0 || r.m.peers["x:1"] != p || len(r.m.sessions) != 1 {
			t.Fatalf("tick %d: lapsed %v, epoch %d, record kept %v, %d sessions; want a live record at epoch 0",
				i, p.lapsed, p.epoch.Load(), r.m.peers["x:1"] == p, len(r.m.sessions))
		}
	}
	// Its last connection gone, the clock runs again; past the grace the
	// record lapses and, unheld, is forgotten.
	r.m.connClosed(c, sess, p, r.now)
	r.tick(r.m.cfg.LeaseGrace + 1)
	if !p.lapsed || p.epoch.Load() != 1 || r.m.peers["x:1"] != nil {
		t.Fatalf("past the grace: lapsed %v, epoch %d, kept %v; want lapsed at epoch 1 and forgotten",
			p.lapsed, p.epoch.Load(), r.m.peers["x:1"] != nil)
	}
}

func TestProtoRestartedPeerMovesEpoch(t *testing.T) {
	// Our dial reaching the address again: the same instance (a redial, a
	// durable restart) keeps the epoch and the queued releases; another
	// instance is a process whose keys count from 1 again, so the epoch
	// moves on and the releases for its predecessor are dropped. A hello
	// on an accepted connection cannot move it: the address is a claim.
	r := newRig(t)
	p := r.m.hold("b:1")
	c, sess := r.dial(p, 5)
	r.m.connClosed(c, sess, p, r.now)
	r.m.releaseDropped(p, 0, 3, 1)
	c, sess = r.dial(p, 5)
	if p.epoch.Load() != 0 || len(p.queue) != 1 {
		t.Fatalf("same instance: epoch %d, %d queued; want 0 and 1", p.epoch.Load(), len(p.queue))
	}
	r.m.connClosed(c, sess, p, r.now)
	r.helloFrom(nil, 6, "b:1")
	if p.epoch.Load() != 0 || len(p.queue) != 1 {
		t.Fatalf("accepted hello from another instance: epoch %d, %d queued; want 0 and 1", p.epoch.Load(), len(p.queue))
	}
	r.dial(p, 6)
	if p.epoch.Load() != 1 || len(p.queue) != 0 || r.m.queued != 0 {
		t.Fatalf("restarted instance: epoch %d, %d queued (counted %d); want 1, 0, 0", p.epoch.Load(), len(p.queue), r.m.queued)
	}
	r.m.proxyReleased(p, 0, 3, 1)
	if acts := r.acts(); len(acts) != 0 {
		t.Fatalf("a release minted for the old instance: %v, want nothing sent", acts)
	}
}

func TestProtoForgetsIdleRecords(t *testing.T) {
	// A lapsed record stays while a proxy holds it, while a dial is out
	// and while its breaker is open; then the next tick forgets it, and its
	// RED block leaves the registry with it.
	listed := func(addr string) bool {
		for _, p := range scstats.Take().Peers {
			if p.Addr == addr {
				return true
			}
		}
		return false
	}
	r := newRig(t)
	p := r.m.hold("r:1")
	c, sess := r.dial(p, 5)
	r.m.connClosed(c, sess, p, r.now)
	r.tick(r.m.cfg.LeaseGrace + 1)
	if !p.lapsed || r.m.peers["r:1"] != p || !listed("r:1") {
		t.Fatalf("held: lapsed %v, kept %v, listed %v; want a lapsed record kept and listed", p.lapsed, r.m.peers["r:1"] == p, listed("r:1"))
	}
	p.holds--
	r.m.admit(p, r.now)
	r.tick(0)
	r.m.dialed(p, false, r.now)
	r.tick(breakerBackoff - 1)
	if r.m.peers["r:1"] != p {
		t.Fatal("forgotten mid-dial or inside its breaker window")
	}
	r.tick(1)
	if r.m.peers["r:1"] != nil || listed("r:1") {
		t.Fatalf("unneeded: kept %v, listed %v; want both gone", r.m.peers["r:1"] != nil, listed("r:1"))
	}
	if q := r.m.peer("r:1"); q == p || q.epoch.Load() != 0 || q.red != nil {
		t.Fatal("the address's next record is not a fresh one")
	}
}

func TestLeaseSurvivesRedialFromPeer(t *testing.T) {
	// B dials A and binds a B-local counter in A's naming context: A holds
	// a proxy to it that A has not called. B's connection is severed, B
	// calls A again (a new connection, accepted by A), and the grace
	// passes. A never dialled B, but B never left: A's proxy must still
	// work, and dropping it must release B's export.
	clk := newManualClock()
	a := clk.machine(t, "A")
	b := clk.machine(t, "B")
	ns := naming.NewServer(a.env)
	a.srv.PublishRoot("naming", ns.Object())
	ctxObj, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "naming", naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	ctr := &sctest.Counter{}
	cb, _ := singleton.Export(b.env, sctest.CounterMT, ctr.Skeleton(), nil)
	if err := (naming.Context{Obj: ctxObj}).Bind("callback", cb, false); err != nil { // consumes cb: A's proxy holds the only reference
		t.Fatal(err)
	}
	if got := b.srv.Exports(); got != 1 {
		t.Fatalf("B exports %d doors, want the callback", got)
	}

	l := &b.srv.record(a.srv.Addr()).link
	l.live(roleCall).fail(commErr("severed"))
	until(t, "A sees B's connection close", func() bool { return connsOf(a.srv) == 0 })
	if _, err := (naming.Context{Obj: ctxObj}).List(); err != nil { // B redials A
		t.Fatal(err)
	}
	// Without the accepted hello stopping its clock, A's record of B's
	// address would lapse a tick past the grace; idle three graces.
	c0 := countNow()
	clk.idle(t, int(3*defaults.LeaseGrace/tick), a.srv, b.srv)
	if p := a.srv.record(b.srv.Addr()); p == nil || p.lapsed || p.epoch.Load() != 0 {
		t.Fatal("A's record of B's address lapsed while B was connected")
	}
	c0.moved(t, "three idle graces", nil)

	local, err := ns.Handle()
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := local.Resolve("callback", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(proxy, 4); err != nil || v != 4 {
		t.Fatalf("A's call on B's callback after B's redial: %d, %v; want 4, nil", v, err)
	}
	if err := local.Unbind("callback"); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Consume(); err != nil {
		t.Fatal(err)
	}
	until(t, "B's export released", func() bool { return b.srv.Exports() == 0 })
}

func TestLeaseExpiredForRestartedPeer(t *testing.T) {
	// B restarts on its address well within the grace, without a state
	// file: a new instance whose keys count from 1 again, and another
	// machine C imports B's counter so that key 1 names a live door. A's
	// proxy from the old B must fail with ErrLeaseExpired — never reach
	// the new B's door — while a fresh import works.
	clk := newManualClock()
	a := clk.machine(t, "A")
	b := clk.machine(t, "B")
	exportCounter(t, b, "counter")
	old, err := a.srv.ImportRootObject(a.env, b.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(old, 1); err != nil {
		t.Fatal(err)
	}
	addr := b.srv.Addr()
	_ = b.srv.Kill()
	b2 := newMachineOn(t, clk, "B2", addr, virtualCfg())
	ctr2, _, _ := exportCounter(t, b2, "counter")
	c := clk.machine(t, "C")
	if _, err := c.srv.ImportRootObject(c.env, addr, "counter", sctest.CounterMT); err != nil {
		t.Fatal(err)
	}

	// No time passes: the old proxy's first call after A has seen the old
	// connection close dials the restarted peer, whose hello names another
	// instance.
	until(t, "A sees the old B's connection close", func() bool { return connsOf(a.srv) == 0 })
	if _, err := sctest.Add(old, 1); !errors.Is(err, ErrLeaseExpired) || !errors.Is(err, kernel.ErrCommFailure) {
		t.Fatalf("old proxy: %v (counter %d); want ErrLeaseExpired", err, ctr2.Value())
	}
	fresh, err := a.srv.ImportRootObject(a.env, addr, "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(fresh, 2); err != nil || v != 2 {
		t.Fatalf("fresh import of the restarted peer: Add = %d, %v; want 2, nil", v, err)
	}
}

// callCode sends the prepared call as request id and returns its reply code.
func (p *rawPeer) callCode(id uint64) byte {
	binary.LittleEndian.PutUint64(p.call[5:], id)
	if _, err := p.conn.Write(p.call); err != nil {
		p.t.Fatal(err)
	}
	reply := p.next(msgReply)
	if got := binary.LittleEndian.Uint64(reply); got != id {
		p.t.Fatalf("call %d answered by reply %d", id, got)
	}
	return reply[8]
}

func TestGuessedKeyRefused(t *testing.T) {
	// Export keys count from 1, so they are easy to guess. A peer whose
	// session holds no reference on a key must be refused as if the key
	// did not exist, while the peer that imported it is served.
	a := newMachine(t, "A")
	ctr, _, _ := exportCounter(t, a, "counter")
	holder := dialRawPeerAs(t, a.srv.Addr(), 1, "")
	key := holder.importRoot("counter")
	holder.prepare(key)
	guesser := dialRawPeerAs(t, a.srv.Addr(), 2, "")
	guesser.prepare(key)
	for i := range uint64(3) {
		if code := guesser.callCode(i + 1); code != codeBadKey {
			t.Fatalf("guessed key %d, call %d: code %d, want codeBadKey", key, i+1, code)
		}
	}
	if code := holder.callCode(1); code != codeOK || ctr.Value() != 0 {
		t.Fatalf("holder's call: code %d, counter %d; want codeOK and 0", code, ctr.Value())
	}
	if got := a.srv.Exports(); got != 1 {
		t.Fatalf("%d exports after the refusals, want 1", got)
	}
}

func TestReclaimPeerChurn(t *testing.T) {
	// 5,000 client instances, each advertising its own address, say hello
	// and close. Once their grace has passed, the records and sessions are
	// gone, nothing is left in the RED registry, and the heap is where it
	// was: per-peer state has the lifetime of the peer.
	a := newMachineCfg(t, "A", quickCfg())
	sizes := func() (peers, sessions, red int) {
		a.srv.mu.Lock()
		peers, sessions = len(a.srv.proto.peers), len(a.srv.proto.sessions)
		a.srv.mu.Unlock()
		return peers, sessions, len(scstats.Take().Peers)
	}
	peers0, _, red0 := sizes()
	churn := func(from, to int) {
		for i := from; i < to; i++ {
			conn, err := SameMachine().Dial(a.srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			hello := buffer.New(32)
			hello.WriteByte(msgHello)
			hello.WriteUint64(1<<40 + uint64(i))
			hello.WriteUint64(1)
			hello.WriteString(fmt.Sprintf("10.%d.%d.%d:7040", i>>16, i>>8&255, i&255))
			if err := writeFrame(conn, hello.Bytes()); err != nil {
				t.Fatal(err)
			}
			rawFrame(t, conn) // A's hello: with nothing unread, the close is a clean one
			_ = conn.Close()
		}
	}
	settled := func() bool {
		peers, sessions, red := sizes()
		return peers == peers0 && sessions == 0 && red == red0
	}
	churn(0, 1000) // the tables and pools reach their working size
	waitFor(t, 10*time.Second, "the first 1,000 peers forgotten", settled)
	early := heapAfterGC()
	churn(1000, 5000)
	waitFor(t, 10*time.Second, "all 5,000 peers forgotten", settled)
	if raceEnabled {
		return // the race detector's shadow memory makes the heap figure meaningless
	}
	if late := heapAfterGC(); late > early+1<<20 {
		t.Errorf("live heap grew %d bytes over 4,000 departed peers (%d, then %d), want within 1 MiB", late-early, early, late)
	}
}
