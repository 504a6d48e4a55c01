package netd

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/kernel"
)

// The control plane (proto.go) under a fake clock: no sockets, no sleeps.
// A test drives events the way the shell does and reads the actions back.

func TestProtoIsPure(t *testing.T) {
	// Each file may import only what it lists; neither starts a goroutine
	// or reads the clock. The mapping (ids.go) takes the lock its events
	// need, so it may import sync, but no socket, stream or reader.
	for file, allowed := range map[string]map[string]bool{
		"proto.go": {
			"time":                    true, // durations and instants it is handed, never the clock
			"sync/atomic":             true, // peerState.epoch, which proxies load without a lock
			"repro/internal/dispatch": true,
			"repro/internal/kernel":   true,
			"repro/internal/scstats":  true,
		},
		"ids.go": {
			"encoding/binary":       true,
			"fmt":                   true,
			"sync":                  true,
			"repro/internal/buffer": true,
			"repro/internal/core":   true, // the published roots
			"repro/internal/kernel": true,
		},
	} {
		checkPure(t, file, allowed)
	}
}

func checkPure(t *testing.T, file string, allowed map[string]bool) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	timeName := "time"
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if !allowed[path] {
			t.Errorf("%s imports %q", file, path)
		}
		if path == "time" && imp.Name != nil {
			timeName = imp.Name.Name
		}
	}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Sleep": true, "Tick": true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%v: %s starts a goroutine", fset.Position(n.Pos()), file)
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == timeName && clock[n.Sel.Name] {
				t.Errorf("%v: %s reads the clock (time.%s)", fset.Position(n.Pos()), file, n.Sel.Name)
			}
		}
		return true
	})
}

// rig drives one proto with a fake clock.
type rig struct {
	t   *testing.T
	m   *proto
	now time.Time
	h   kernel.Handle // the last handle handed to the machine
}

func newRig(t *testing.T) *rig {
	cfg := Config{
		HeartbeatInterval: time.Second,
		LeaseGrace:        10 * time.Second,
	}.withDefaults()
	return &rig{t: t, m: newProto(cfg, 1), now: time.Unix(1_000_000, 0)}
}

// acts takes the actions the events so far asked for.
func (r *rig) acts() []action {
	a := slices.Clone(r.m.acts)
	r.m.acts = r.m.acts[:0]
	return a
}

func (r *rig) hello(instance uint64) (*conn, *session) {
	c, sess, _ := r.helloFrom(nil, instance, "")
	return c, sess
}

// helloFrom is a hello on a new connection: one dialled for p, or (p nil)
// an accepted one whose hello advertised addr. It returns the record the
// connection counts on.
func (r *rig) helloFrom(p *peerState, instance uint64, addr string) (*conn, *session, *peerState) {
	c := &conn{}
	sess, p := r.m.hello(c, p, instance, 0, addr)
	return c, sess, p
}

// dial is a successful dial to p whose hello names instance.
func (r *rig) dial(p *peerState, instance uint64) (*conn, *session) {
	if _, ok := r.m.admit(p, r.now); !ok {
		r.t.Fatalf("dial to %s not admitted", p.addr)
	}
	c, sess, _ := r.helloFrom(p, instance, p.addr)
	r.m.dialed(p, true, r.now)
	return c, sess
}

func (r *rig) export(sess *session, door uint64) uint64 {
	r.h++
	key, ok := r.m.exported(sess, door, r.h)
	if !ok {
		r.t.Fatalf("export of door %d refused", door)
	}
	return key
}

// tick advances the clock by d and ticks.
func (r *rig) tick(d time.Duration, stamps ...connStamp) []action {
	r.now = r.now.Add(d)
	r.m.tick(r.now, stamps)
	return r.acts()
}

// stamp describes c as last receiving recvAgo and last sending sendAgo
// before the rig's clock after it advances by d.
func (r *rig) stamp(c *conn, sess *session, d, recvAgo, sendAgo time.Duration) connStamp {
	now := r.now.Add(d)
	return connStamp{c: c, sess: sess, recv: now.Add(-recvAgo).UnixNano(), send: now.Add(-sendAgo).UnixNano()}
}

func count(acts []action, kind actKind) (n int) {
	for _, a := range acts {
		if a.kind == kind {
			n++
		}
	}
	return n
}

func TestProtoTimers(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"lease reclaimed at grace+ε, not at grace", func(t *testing.T, r *rig) {
			c, sess := r.hello(7)
			r.export(sess, 100)
			r.export(sess, 101)
			r.m.connClosed(c, sess, nil, r.now)
			if acts := r.tick(r.m.cfg.LeaseGrace); count(acts, actDelete) != 0 || len(r.m.sessions) != 1 {
				t.Fatalf("at grace: %d deletes, %d sessions; want 0 and 1", count(acts, actDelete), len(r.m.sessions))
			}
			if acts := r.tick(time.Nanosecond); count(acts, actDelete) != 2 || len(r.m.sessions) != 0 || len(r.m.exports) != 0 {
				t.Fatalf("at grace+1ns: %d deletes, %d sessions, %d exports; want 2, 0, 0",
					count(acts, actDelete), len(r.m.sessions), len(r.m.exports))
			}
			if _, ok := r.m.exported(sess, 102, 99); ok || !sess.expired {
				t.Fatal("an expired session still takes exports")
			}
		}},
		{"a session with one live connection never expires", func(t *testing.T, r *rig) {
			c1, sess := r.hello(7)
			c2, _ := r.hello(7)
			r.export(sess, 100)
			r.m.connClosed(c1, sess, nil, r.now)
			for range 100 {
				r.tick(r.m.cfg.LeaseGrace, r.stamp(c2, sess, r.m.cfg.LeaseGrace, 0, 0))
			}
			// Silent, c2 is failed — but the lease waits for it to close.
			acts := r.tick(2*r.m.cfg.LeaseGrace, r.stamp(c2, sess, 2*r.m.cfg.LeaseGrace, 2*r.m.cfg.LeaseGrace, 0))
			if count(acts, actFail) != 1 || count(acts, actDelete) != 0 || len(r.m.sessions) != 1 || len(r.m.exports) != 1 {
				t.Fatalf("silent live connection: %v; %d sessions, %d exports", acts, len(r.m.sessions), len(r.m.exports))
			}
		}},
		{"only the lead is pinged, silence judged on the freshest stamp", func(t *testing.T, r *rig) {
			hb, grace := r.m.cfg.HeartbeatInterval, r.m.cfg.LeaseGrace
			lead, sess := r.hello(7)
			other, _ := r.hello(7)
			handshaking := &conn{}
			// lead has heard nothing for longer than the grace, other just now.
			acts := r.tick(hb, r.stamp(lead, sess, hb, grace+time.Second, hb), r.stamp(other, sess, hb, 0, hb),
				r.stamp(handshaking, nil, hb, 0, hb))
			if len(acts) != 2 || acts[0] != (action{kind: actPing, c: lead}) || acts[1] != (action{kind: actPing, c: handshaking}) {
				t.Fatalf("acts = %v, want pings of the lead and the connection mid-handshake", acts)
			}
			// Sent within the interval: no ping.
			if acts := r.tick(hb, r.stamp(lead, sess, hb, 0, hb-1)); len(acts) != 0 {
				t.Fatalf("acts = %v, want none", acts)
			}
			// The lead closed: the survivor takes the duty.
			r.m.connClosed(lead, sess, nil, r.now)
			acts = r.tick(hb, r.stamp(other, sess, hb, 0, hb))
			if len(acts) != 1 || acts[0] != (action{kind: actPing, c: other}) || sess.hb != other {
				t.Fatalf("acts = %v, want the survivor pinged", acts)
			}
			// Every connection silent past the grace: each is failed, none pinged.
			acts = r.tick(hb, r.stamp(other, sess, hb, grace+1, hb), r.stamp(handshaking, nil, hb, grace+1, hb))
			if count(acts, actFail) != 2 || count(acts, actPing) != 0 {
				t.Fatalf("acts = %v, want two fails", acts)
			}
		}},
		{"breaker backoff doubles to the max with one half-open probe", func(t *testing.T, r *rig) {
			p := r.m.peer("peer")
			if _, ok := r.m.admit(p, r.now); !ok {
				t.Fatal("closed breaker refused a dial")
			}
			r.m.dialed(p, false, r.now)
			var wants []time.Duration // doubling from breakerBackoff, then twice at the cap
			for d := breakerBackoff; d < breakerMaxBackoff; d *= 2 {
				wants = append(wants, d)
			}
			wants = append(wants, breakerMaxBackoff, breakerMaxBackoff)
			for _, want := range wants {
				if p.state != breakerOpen || p.backoff != want {
					t.Fatalf("breaker %d backoff %v, want open %v", p.state, p.backoff, want)
				}
				if until, ok := r.m.admit(p, r.now.Add(want-time.Nanosecond)); ok || !until.Equal(r.now.Add(want)) {
					t.Fatalf("open breaker admitted (or until %v) before its backoff", until)
				}
				r.now = r.now.Add(want)
				if _, ok := r.m.admit(p, r.now); !ok {
					t.Fatal("breaker refused the half-open probe")
				}
				if until, ok := r.m.admit(p, r.now); ok || !until.IsZero() {
					t.Fatalf("breaker admitted a second half-open probe (or named an admit time %v)", until)
				}
				r.m.dialed(p, false, r.now)
			}
			r.now = r.now.Add(p.backoff)
			r.m.admit(p, r.now)
			r.m.dialed(p, true, r.now)
			if p.state != breakerClosed || p.backoff != 0 || r.m.counts[tBreakerClosed] != 1 || p.dials != 0 {
				t.Fatalf("after a good probe: state %d backoff %v closed %d", p.state, p.backoff, r.m.counts[tBreakerClosed])
			}
		}},
		{"a release queued while down replays on reconnect, dropped once the epoch lapses", func(t *testing.T, r *rig) {
			p := r.m.hold("peer")
			epoch := p.epoch.Load()
			r.m.proxyReleased(p, epoch, 5, 2)
			if acts := r.acts(); len(acts) != 1 || acts[0] != (action{kind: actRelease, p: p, epoch: epoch, key: 5, count: 2}) {
				t.Fatalf("acts = %v, want the release sent", acts)
			}
			c, sess := r.dial(p, 7)
			r.m.connClosed(c, sess, p, r.now)
			r.m.releaseDropped(p, epoch, 5, 2) // no connection to send it on
			if acts := r.tick(r.m.cfg.HeartbeatInterval); len(acts) != 1 || acts[0] != (action{kind: actReplay, p: p}) {
				t.Fatalf("acts = %v, want a replay", acts)
			}
			c, sess = r.dial(p, 7)
			r.m.replay(p)
			if acts := r.acts(); len(acts) != 1 || acts[0].kind != actRelease || acts[0].key != 5 || r.m.queued != 0 {
				t.Fatalf("acts = %v queued %d, want the release replayed", acts, r.m.queued)
			}
			for range maxQueuedReleases + 10 {
				r.m.releaseDropped(p, epoch, 6, 1)
			}
			if len(p.queue) != maxQueuedReleases || r.m.queued != maxQueuedReleases {
				t.Fatalf("queue %d (counted %d), want the bound %d", len(p.queue), r.m.queued, maxQueuedReleases)
			}
			r.m.connClosed(c, sess, p, r.now)
			r.tick(r.m.cfg.LeaseGrace) // at grace the queue still waits
			if len(p.queue) != maxQueuedReleases {
				t.Fatal("queue dropped at grace")
			}
			r.acts()
			if acts := r.tick(time.Nanosecond); len(acts) != 0 || len(p.queue) != 0 || r.m.queued != 0 || p.epoch.Load() == epoch {
				t.Fatalf("past grace: acts %v, queue %d, epoch %d; want the queue dropped and the epoch bumped", acts, len(p.queue), p.epoch.Load())
			}
			r.m.proxyReleased(p, epoch, 7, 1)
			r.m.releaseDropped(p, epoch, 7, 1)
			if len(r.m.acts) != 0 || len(p.queue) != 0 {
				t.Fatal("a release minted under the lapsed epoch was sent or queued")
			}
		}},
		{"a restored session gets a full grace from the restore", func(t *testing.T, r *rig) {
			r.m.cfg.StateFile = "netd.state"
			ps := &persistedState{Instance: 9, NextKey: 10,
				Exports:  []persistedExport{{Key: 3, Label: "a"}, {Key: 4, Label: "b"}},
				Sessions: []persistedSession{{Instance: 2, Refs: []persistedRef{{Key: 3, Count: 2}, {Key: 5, Count: 1}}}}}
			r.m.restore(ps, []reboundExport{{key: 3, label: "a", door: 30, h: 1}, {key: 4, label: "b", door: 40, h: 2}}, r.now)
			sess := r.m.sessions[2]
			if r.m.instance != 9 || r.m.nextKey != 10+keySlack || len(sess.refs) != 1 || r.m.exports[3].held[sess] != 2 {
				t.Fatalf("restored instance %d, next key %d, refs %v", r.m.instance, r.m.nextKey, sess.refs)
			}
			if acts := r.acts(); len(acts) != 1 || acts[0] != (action{kind: actDelete, h: 2}) {
				t.Fatalf("acts = %v, want the rebound export nobody holds deleted", acts)
			}
			r.tick(r.m.cfg.LeaseGrace)
			if len(r.m.sessions) != 1 {
				t.Fatal("restored session expired at grace")
			}
			if acts := r.tick(time.Nanosecond); count(acts, actDelete) != 1 || len(r.m.sessions) != 0 {
				t.Fatalf("acts = %v, want the restored lease reclaimed past grace", acts)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newRig(t)) })
	}
}

func TestProtoDropClamps(t *testing.T) {
	// A release frame's count comes off the wire. More than the session
	// holds is clamped; one that decodes negative (a uvarint past MaxInt64)
	// changes nothing — the parent added it to the session's references.
	r := newRig(t)
	_, sess := r.hello(7)
	key := r.export(sess, 1)
	r.export(sess, 1) // the same door again: one entry, two references
	if acts := r.acts(); len(acts) != 1 || acts[0] != (action{kind: actDelete, h: 2}) {
		t.Fatalf("re-export: acts %v, want its own handle deleted", acts)
	}
	r.m.drop(key, sess, -1)
	if sess.refs[key] != 2 || r.m.exports[key].held[sess] != 2 {
		t.Fatalf("a negative count moved the references to %d/%d", sess.refs[key], r.m.exports[key].held[sess])
	}
	r.m.drop(key, sess, 5)
	if acts := r.acts(); len(r.m.exports) != 0 || len(sess.refs) != 0 || len(acts) != 1 || acts[0] != (action{kind: actDelete, h: 1}) {
		t.Fatalf("over-release: %d exports, refs %v, acts %v; want the entry gone and its handle deleted", len(r.m.exports), sess.refs, acts)
	}
}

func TestProtoTickAllocs(t *testing.T) {
	// A steady table with nothing to do: a tick reads its stamps, sessions
	// and peers and asks for nothing, and allocates nothing doing it.
	r := newRig(t)
	var stamps []connStamp
	for i := range 8 {
		c, sess := r.hello(uint64(i % 4))
		r.export(sess, uint64(i))
		stamps = append(stamps, r.stamp(c, sess, 0, 0, 0))
		r.m.peer(fmt.Sprintf("peer%d", i))
	}
	r.acts()
	if n := testing.AllocsPerRun(100, func() { r.m.tick(r.now, stamps) }); n != 0 || len(r.m.acts) != 0 {
		t.Fatalf("tick allocated %v times, asked for %d actions; want 0 and 0", n, len(r.m.acts))
	}
}

// TestProtoSchedules runs seeded random schedules of events — peers
// saying hello, connections dying and closing, exports, session and home
// releases, dials and their outcomes (a dialled peer now and then
// restarted), proxy imports and releases, labels and ticks with random
// clock steps — through one machine, performing its actions the way the
// shell would, and checks the tables' invariants after every event. Each seed is a subtest: -run 'TestProtoSchedules/seed=N$'
// replays one.
func TestProtoSchedules(t *testing.T) {
	for seed := range 2000 {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newWorld(t, uint64(seed))
			for i := range 200 {
				w.step()
				w.check(i)
			}
			w.m.shutdown()
			w.settle()
			if w.gauges[tExports] != 0 || w.gauges[tSessions] != 0 || w.gauges[tQueued] != 0 {
				t.Fatalf("gauges after shutdown: %v", w.gauges)
			}
		})
	}
}

// world is the shell's stand-in for TestProtoSchedules: open connections
// with their stamps, the handles handed to the machine, the proxies and
// probes outstanding (each holding its record), the instance each address
// runs, and the gauges as settle would move them.
type world struct {
	t       *testing.T
	rng     *rand.Rand
	m       *proto
	now     time.Time
	conns   []*wconn
	byConn  map[*conn]*wconn
	h       kernel.Handle          // the last handle handed to the machine
	deleted map[kernel.Handle]bool // handles an action deleted
	proxies []wproxy
	probes  []*peerState // admitted dials with no outcome yet
	inst    map[string]uint64
	known   map[string]*peerState // the records at the last check
	shown   tally
	gauges  tally
	event   string
}

type wconn struct {
	id         int
	c          *conn
	sess       *session
	p          *peerState // the record its hello counted it on
	addr       string     // the peer's address, "" for a peer that gave none
	dead       bool
	recv, send int64
}

type wproxy struct {
	p          *peerState
	epoch, key uint64
}

var worldAddrs = []string{"", "a:1", "b:1", "c:1"}

func newWorld(t *testing.T, seed uint64) *world {
	cfg := Config{
		HeartbeatInterval: time.Second,
		LeaseGrace:        4 * time.Second,
	}.withDefaults()
	if seed%2 == 1 {
		cfg.StateFile = "netd.state"
	}
	return &world{t: t, rng: rand.New(rand.NewPCG(seed, 1)), m: newProto(cfg, 1), now: time.Unix(1_000_000, 0),
		byConn: make(map[*conn]*wconn), deleted: make(map[kernel.Handle]bool), inst: make(map[string]uint64),
		known: make(map[string]*peerState)}
}

func (w *world) pickConn() *wconn {
	if len(w.conns) == 0 {
		return nil
	}
	return w.conns[w.rng.IntN(len(w.conns))]
}

// step runs one random event and performs what it asked for.
func (w *world) step() {
	m, rng := w.m, w.rng
	switch ev := rng.IntN(16); {
	case ev < 3:
		w.event = "hello"
		wc := w.open(worldAddrs[rng.IntN(len(worldAddrs))])
		if rng.IntN(8) != 0 { // some connections never finish the handshake
			wc.sess, wc.p = m.hello(wc.c, nil, 1+rng.Uint64N(4), m.connEpoch(), wc.addr)
		}
	case ev < 4:
		w.event = "connection dies"
		if wc := w.pickConn(); wc != nil {
			wc.dead = true
		}
	case ev < 5:
		w.event = "connection closed"
		if wc := w.pickConn(); wc != nil {
			w.close(wc)
		}
	case ev < 7:
		w.event = "export"
		if wc := w.pickConn(); wc != nil {
			w.h++
			m.exported(wc.sess, 1+rng.Uint64N(24), w.h)
		}
	case ev < 8:
		w.event = "session release"
		if wc := w.pickConn(); wc != nil && wc.sess != nil {
			key := rng.Uint64N(m.nextKey + 1)
			if keys := slices.Sorted(maps.Keys(wc.sess.refs)); len(keys) > 0 && rng.IntN(4) != 0 {
				key = keys[rng.IntN(len(keys))]
			}
			m.drop(key, wc.sess, 1+rng.IntN(3))
		}
	case ev < 9:
		w.event = "home unwrap"
		if wc := w.pickConn(); wc != nil && wc.sess != nil {
			key := rng.Uint64N(m.nextKey + 1)
			if keys := slices.Sorted(maps.Keys(wc.sess.refs)); len(keys) > 0 && rng.IntN(4) != 0 {
				key = keys[rng.IntN(len(keys))]
			}
			m.unwrapped(key, wc.sess)
		}
	case ev < 10:
		w.event = "dial admit"
		p := m.peer(worldAddrs[1+rng.IntN(3)])
		if _, ok := m.admit(p, w.now); ok {
			w.probes = append(w.probes, p)
		}
	case ev < 11:
		w.event = "dial outcome"
		if len(w.probes) > 0 {
			i := rng.IntN(len(w.probes))
			p, ok := w.probes[i], rng.IntN(2) == 0
			w.probes = slices.Delete(w.probes, i, i+1)
			if ok { // the shell reports a dial good once the peer's hello came
				if w.inst[p.addr] == 0 || rng.IntN(4) == 0 {
					w.inst[p.addr] = 1 + rng.Uint64N(4) // a restart, now and then
				}
				wc := w.open(p.addr)
				wc.sess, wc.p = m.hello(wc.c, p, w.inst[p.addr], m.connEpoch(), p.addr)
			}
			m.dialed(p, ok, w.now)
		}
	case ev < 12:
		w.event = "proxy imported"
		p := m.hold(worldAddrs[1+rng.IntN(3)])
		epoch := p.epoch.Load()
		w.proxies = append(w.proxies, wproxy{p: p, epoch: epoch, key: 1 + rng.Uint64N(8)})
	case ev < 13:
		w.event = "proxy released"
		if len(w.proxies) > 0 {
			i := rng.IntN(len(w.proxies))
			x := w.proxies[i]
			w.proxies = slices.Delete(w.proxies, i, i+1)
			m.proxyReleased(x.p, x.epoch, x.key, 1+rng.IntN(2))
			x.p.holds--
		}
	case ev < 14:
		w.event = "label"
		m.label(1+rng.Uint64N(24), fmt.Sprintf("l%d", rng.IntN(4)))
	default:
		w.event = "tick"
		w.tick()
	}
	w.perform()
}

// tick advances the clock by a random step — zero, part of a heartbeat,
// half a grace or a grace give or take a nanosecond — with random traffic.
func (w *world) tick() {
	grace, hb := w.m.cfg.LeaseGrace, w.m.cfg.HeartbeatInterval
	steps := []time.Duration{0, hb / 3, 2 * hb, grace / 2, grace - 1, grace, grace + 1}
	w.now = w.now.Add(steps[w.rng.IntN(len(steps))])
	stamps := make([]connStamp, 0, len(w.conns))
	for _, wc := range w.conns {
		if w.rng.IntN(2) == 0 {
			wc.recv = w.now.UnixNano()
		}
		if w.rng.IntN(3) == 0 {
			wc.send = w.now.UnixNano()
		}
		if !wc.dead {
			stamps = append(stamps, connStamp{c: wc.c, sess: wc.sess, recv: wc.recv, send: wc.send})
		}
	}
	w.m.tick(w.now, stamps)
}

// open adds a connection to a peer at addr, before its hello.
func (w *world) open(addr string) *wconn {
	wc := &wconn{id: len(w.byConn), c: &conn{}, addr: addr, recv: w.now.UnixNano(), send: w.now.UnixNano()}
	w.byConn[wc.c] = wc
	w.conns = append(w.conns, wc)
	return wc
}

// close is the shell's connClosed.
func (w *world) close(wc *wconn) {
	i := slices.Index(w.conns, wc)
	w.conns = slices.Delete(w.conns, i, i+1)
	w.m.connClosed(wc.c, wc.sess, wc.p, w.now)
}

// settle moves the gauges as the shell's settle does.
func (w *world) settle() {
	t := w.m.tally()
	for i := range t {
		w.gauges[i] += t[i] - w.shown[i]
	}
	w.shown = t
}

// perform carries out the actions, in an order fixed by their contents
// (the machine appends some in map order), until none are left: a failed
// connection closes, a release is sent or dropped, a replay reaches its
// peer or does not.
func (w *world) perform() {
	for len(w.m.acts) > 0 {
		acts := slices.Clone(w.m.acts)
		w.m.acts = w.m.acts[:0]
		w.settle()
		slices.SortFunc(acts, func(a, b action) int {
			return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.h, b.h), cmp.Compare(a.key, b.key),
				cmp.Compare(a.count, b.count), cmp.Compare(a.epoch, b.epoch), cmp.Compare(w.connID(a.c), w.connID(b.c)),
				cmp.Compare(w.addrOf(a.p), w.addrOf(b.p)))
		})
		for _, a := range acts {
			if a.p != nil && w.m.peers[a.p.addr] != a.p {
				w.t.Fatalf("after %s: action %d names the forgotten record of %s", w.event, a.kind, a.p.addr)
			}
			switch a.kind {
			case actDelete:
				w.deleteHandle(a.h)
			case actFail:
				if wc := w.byConn[a.c]; wc != nil && slices.Contains(w.conns, wc) {
					wc.dead = true
					w.close(wc)
				}
			case actPing:
				w.byConn[a.c].send = w.now.UnixNano()
			case actRelease:
				if w.rng.IntN(3) == 0 {
					w.m.releaseDropped(a.p, a.epoch, a.key, a.count)
				}
			case actReplay:
				if w.rng.IntN(2) == 0 {
					w.m.replay(a.p)
				}
			case actPersist:
				if w.rng.IntN(4) == 0 {
					w.m.persistFailed()
				}
			}
		}
	}
	w.settle()
}

func (w *world) connID(c *conn) int {
	if wc := w.byConn[c]; wc != nil {
		return wc.id
	}
	return -1
}

func (w *world) addrOf(p *peerState) string {
	if p == nil {
		return ""
	}
	return p.addr
}

// deleteHandle is an actDelete: each handle once, and only once no entry
// holds it.
func (w *world) deleteHandle(h kernel.Handle) {
	if h < 1 || h > w.h || w.deleted[h] {
		w.t.Fatalf("after %s: handle %d deleted again or never handed out", w.event, h)
	}
	w.deleted[h] = true
	for key, e := range w.m.exports {
		if e.h == h {
			w.t.Fatalf("after %s: handle %d deleted while export %d holds it", w.event, h, key)
		}
	}
}

// check asserts the tables' invariants after event i.
func (w *world) check(i int) {
	t, m := w.t, w.m
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("event %d (%s): %s", i, w.event, fmt.Sprintf(format, args...))
	}
	handles := make(map[kernel.Handle]uint64)
	for key, e := range m.exports {
		if len(e.held) == 0 {
			fail("export %d has no holder", key)
		}
		if m.byDoor[e.door] != key {
			fail("export %d of door %d: byDoor says %d", key, e.door, m.byDoor[e.door])
		}
		if other, dup := handles[e.h]; dup || w.deleted[e.h] {
			fail("export %d holds handle %d, also held by %d or deleted", key, e.h, other)
		}
		handles[e.h] = key
		for sess, n := range e.held {
			if n <= 0 || sess.refs[key] != n {
				fail("export %d: held[%d] = %d, the session's refs say %d", key, sess.peer, n, sess.refs[key])
			}
			if m.sessions[sess.peer] != sess || sess.expired {
				fail("export %d held by session %d, which is not live", key, sess.peer)
			}
		}
	}
	for door, key := range m.byDoor {
		if e, ok := m.exports[key]; !ok || e.door != door {
			fail("byDoor[%d] = %d, which is not that door's export", door, key)
		}
	}
	for h := kernel.Handle(1); h <= w.h; h++ {
		if _, held := handles[h]; held == w.deleted[h] {
			fail("handle %d is held %v and deleted %v", h, held, w.deleted[h])
		}
	}
	bound := make(map[*session]int)
	for _, wc := range w.conns {
		if wc.sess != nil {
			bound[wc.sess]++
		}
	}
	for instance, sess := range m.sessions {
		if sess.peer != instance || sess.conns != bound[sess] {
			fail("session %d: %d connections bound, the world has %d", instance, sess.conns, bound[sess])
		}
		if (sess.conns == 0) == sess.downSince.IsZero() {
			fail("session %d has %d connections and down since %v", instance, sess.conns, sess.downSince)
		}
		for key, n := range sess.refs {
			if e, ok := m.exports[key]; !ok || n <= 0 || e.held[sess] != n {
				fail("session %d holds %d of key %d, which the table does not record", instance, n, key)
			}
		}
	}
	counted, held, dialling := make(map[*peerState]int), make(map[*peerState]int), make(map[*peerState]int)
	for _, wc := range w.conns {
		if wc.p != nil {
			counted[wc.p]++
		}
	}
	for _, x := range w.proxies {
		held[x.p]++
	}
	for _, p := range w.probes {
		dialling[p]++
	}
	for _, refs := range []map[*peerState]int{counted, held, dialling} {
		for p := range refs {
			if m.peers[p.addr] != p {
				fail("the world still uses the forgotten record of %s", p.addr)
			}
		}
	}
	queued := 0
	for addr, p := range m.peers {
		if p.addr != addr || p.conns != counted[p] || p.holds != held[p] || p.dials != dialling[p] {
			fail("record %s: %d connections, %d holds, %d dials; the world has %d, %d, %d",
				addr, p.conns, p.holds, p.dials, counted[p], held[p], dialling[p])
		}
		if p.conns > 0 && (!p.downSince.IsZero() || p.lapsed) || p.lapsed && p.downSince.IsZero() {
			fail("record %s has %d connections, down since %v, lapsed %v", addr, p.conns, p.downSince, p.lapsed)
		}
		if w.event == "tick" && forgettable(p, w.now) {
			fail("record %s is lapsed, unconnected, not dialling, unheld and out of its breaker window, yet kept", addr)
		}
		queued += len(p.queue)
		if len(p.queue) > maxQueuedReleases {
			fail("peer %s: %d releases queued", p.addr, len(p.queue))
		}
		switch p.state {
		case breakerClosed:
			if p.backoff != 0 || p.probing {
				fail("closed breaker for %s: backoff %v probing %v", p.addr, p.backoff, p.probing)
			}
		case breakerOpen:
			if p.backoff < breakerBackoff || p.backoff > breakerMaxBackoff || p.probing {
				fail("open breaker for %s: backoff %v probing %v", p.addr, p.backoff, p.probing)
			}
		case breakerHalfOpen:
			if !p.probing {
				fail("half-open breaker for %s with no probe out", p.addr)
			}
		}
	}
	for addr, p := range w.known {
		if m.peers[addr] != p && !forgettable(p, w.now) {
			fail("record %s forgotten while still needed", addr)
		}
	}
	w.known = maps.Clone(m.peers)
	if w.gauges[tExports] != int64(len(m.exports)) || w.gauges[tSessions] != int64(len(m.sessions)) || w.gauges[tQueued] != int64(queued) {
		fail("gauges %v, tables: %d exports, %d sessions, %d queued", w.gauges[:tLeasesExpired], len(m.exports), len(m.sessions), queued)
	}
}

// forgettable says p may leave the table at now.
func forgettable(p *peerState, now time.Time) bool {
	return p.conns == 0 && p.lapsed && p.dials == 0 && p.holds == 0 && !now.Before(p.openUntil)
}

func TestProtoUnwrapTakesSendersReference(t *testing.T) {
	// A descriptor that comes home carries its sender's reference: a peer
	// holding none on the key cannot unwrap it — a guessed key is not a
	// capability — and one that holds some gives up one of its own.
	r := newRig(t)
	_, sess1 := r.hello(1)
	_, sess2 := r.hello(2)
	_, stranger := r.hello(3)
	key := r.export(sess1, 100)
	r.export(sess2, 100)
	r.acts()
	if _, ok := r.m.unwrapped(key, stranger); ok {
		t.Fatal("a peer holding no reference on the key unwrapped it")
	}
	if _, ok := r.m.unwrapped(key, sess2); !ok || sess2.refs[key] != 0 || sess1.refs[key] != 1 {
		t.Fatalf("unwrap from the second holder: ok %v, refs %d and %d; want true, 0 and 1", ok, sess2.refs[key], sess1.refs[key])
	}
	if acts := r.acts(); len(acts) != 0 || len(r.m.exports) != 1 {
		t.Fatalf("with a holder left: %v, %d exports; want no action, 1 export", acts, len(r.m.exports))
	}
}
