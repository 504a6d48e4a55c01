package netd

import (
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/kernel"
	"repro/internal/scstats"
)

// This file is netd's control plane as a transition system (DESIGN §7): the
// export table and the peers' lease sessions on it, and each peer address's
// record: breaker, import epoch and release-replay queue. It does no I/O,
// reads no clock, starts no goroutine and has no lock (TestProtoIsPure):
// the shell holds Server.mu around each event, passes the time and what it
// knows of the connections inside it, and once it has unlocked performs
// the actions the event appended to acts (Server.settle). Connections are
// identities here; nothing in this file touches one.

// exportEntry tracks one exported door: the server's own identifier for
// it, the door's kernel identity (its byDoor key, so removing the entry is
// O(1)) and, per peer session, how many references that peer holds.
type exportEntry struct {
	h    kernel.Handle
	door uint64
	held map[*session]int
	// inline is the door's adaptive inline-eligibility state (E20):
	// promoted doors execute incoming calls directly on the reader
	// goroutine. Observed completion times drive it.
	inline *dispatch.InlineState
}

// session is one remote peer's lease on this exporter: every reference
// handed to the peer is recorded here, and reclaimed in one sweep if the
// peer stays gone past the lease grace period. Sessions are keyed by the
// peer's random per-process instance identity, so a peer that redials
// (same process, new connection) keeps its references, while a peer that
// restarts presents a new instance and the old session ages out.
type session struct {
	peer      uint64         // remote instance identity (from its hello)
	epoch     uint64         // remote's connection epoch at the latest hello
	addr      string         // remote's advertised listen address ("" if none)
	refs      map[uint64]int // export key → references held by this peer
	conns     int            // connections bound by a hello and not yet closed
	hb        *conn          // heartbeat lead: the one connection pinged
	downSince time.Time      // zero while a connection is bound
	expired   bool           // set when the lease lapses; rejects late exports

	fresh int64 // tick's scratch: the freshest receive over its live connections
}

// peerState is netd's one record of a peer address, kept while anything
// needs it (tick forgets it): the link dialled there, the dial breaker, the
// import epoch that poisons proxy doors once our lease there must be
// presumed lost, the releases waiting for the peer, and its RED block.
type peerState struct {
	addr string
	link link // the shell's (link.go); nothing in this file reads it

	// Circuit breaker. After a failed dial the breaker opens for an
	// exponentially growing period; when the period lapses a single
	// half-open probe dial is allowed, and its outcome closes or
	// re-opens the breaker. While open, calls fail in O(1) instead of
	// each paying the dial timeout.
	state     int // breakerClosed | breakerOpen | breakerHalfOpen
	backoff   time.Duration
	openUntil time.Time
	probing   bool
	dials     int // admitted, outcome not reported yet

	// Lease-loss containment. downSince is set when the last of the conns
	// a hello bound to the address, dialled or accepted, closes; once it
	// exceeds the lease grace period the exporter must be presumed to have
	// reclaimed our references, so the import epoch is bumped — poisoning
	// every proxy door minted under the old epoch — and the queued
	// releases are dropped as moot. epoch is atomic so proxy doors can
	// check poisoning without taking Server.mu on every forwarded call.
	conns     int
	holds     int    // proxies and root fetches forwarding through the record
	instance  uint64 // the peer's, at the last hello on a connection we dialled
	epoch     atomic.Uint64
	downSince time.Time
	lapsed    bool
	queue     []pendingRelease

	// red is the per-peer RED block (rate/errors/duration histogram), from
	// the first hold on, so the forward path records without a lookup.
	red *scstats.PeerStats
}

type pendingRelease struct {
	key   uint64
	count int
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// maxQueuedReleases bounds one peer's replay queue; beyond it further
// releases are dropped (the exporter's own lease grace bounds the leak).
const maxQueuedReleases = 4096

// connStamp is one live connection at a tick: its session (nil until the
// hello) and the unix nanos of its last read that returned bytes and of
// its last write begun.
type connStamp struct {
	c          *conn
	sess       *session
	recv, send int64
}

type actKind uint8

const (
	actPing    actKind = iota // c has sent nothing for a heartbeat interval
	actFail                   // c's peer is silent past the lease grace
	actRelease                // tell p's peer count references on key died here
	actReplay                 // p has releases queued: reach its peer, then replay
	actDelete                 // delete the table's identifier h (unreferenced fires if it was the last)
	actPersist                // write state to the state file
)

// action is one thing an event asks the shell to do once it has unlocked.
type action struct {
	kind  actKind
	c     *conn
	p     *peerState
	key   uint64
	epoch uint64 // of a release: the import epoch it was minted under
	count int
	h     kernel.Handle
	state *persistedState
}

// A tally is what the gauges show of the machine: three table sizes, then
// five event totals. settle moves the gauges by the difference from the
// last one, after every event — the one place they move.
const (
	tExports = iota
	tSessions
	tQueued
	tLeasesExpired
	tRefsReclaimed
	tBreakerOpened
	tBreakerClosed
	tReplayed
	nTally
)

type tally [nTally]int64

// proto is the control plane's state, guarded by Server.mu — except
// instance, which is fixed once Start returns.
type proto struct {
	cfg      Config
	instance uint64 // this server's identity, sent in hellos

	exports   map[uint64]*exportEntry
	byDoor    map[uint64]uint64 // door identity → export key
	nextKey   uint64
	nextEpoch uint64 // the next connection epoch a hello announces
	sessions  map[uint64]*session
	peers     map[string]*peerState

	// Durability (E19): labels names the doors whose exports are worth
	// recovering after a restart (door identity → label; a door may be
	// labeled before it is first exported), and dirty says the durable
	// subset changed since it was last persisted.
	labels map[uint64]string
	dirty  bool

	closed bool
	queued int   // releases queued over all peers
	counts tally // the event totals (the table-size slots stay zero)
	acts   []action
}

func newProto(cfg Config, instance uint64) *proto {
	return &proto{
		cfg:      cfg,
		instance: instance,
		exports:  make(map[uint64]*exportEntry),
		byDoor:   make(map[uint64]uint64),
		nextKey:  1,
		sessions: make(map[uint64]*session),
		peers:    make(map[string]*peerState),
		labels:   make(map[uint64]string),
		dirty:    true, // nothing is persisted yet, the identity included
	}
}

func (m *proto) do(a action) { m.acts = append(m.acts, a) }

// tally reads zero table sizes once the server is shut down.
func (m *proto) tally() tally {
	t := m.counts
	if !m.closed {
		t[tExports], t[tSessions], t[tQueued] = int64(len(m.exports)), int64(len(m.sessions)), int64(m.queued)
	}
	return t
}

func (m *proto) connEpoch() uint64 {
	m.nextEpoch++
	return m.nextEpoch - 1
}

// ---------------------------------------------------------------------
// Exporter side: sessions, leases and the export table.

// hello binds c to the session of the peer instance it introduced,
// creating the session on first contact; a peer that returns (same
// instance) rejoins its session, which stops its lease clock. c counts on
// p, the record it was dialled for, or else on the one its hello named,
// which stops that clock too; a dialled hello from another instance than
// the last is a restart, whose old proxies then fail rather than reach new
// doors. nil, nil once the server is shut down.
func (m *proto) hello(c *conn, p *peerState, instance, epoch uint64, addr string) (*session, *peerState) {
	if m.closed {
		return nil, nil
	}
	sess, ok := m.sessions[instance]
	if !ok {
		sess = &session{peer: instance, refs: make(map[uint64]int)}
		m.sessions[instance] = sess
	}
	sess.epoch = epoch
	if addr != "" {
		sess.addr = addr
	}
	sess.conns++
	if sess.hb == nil {
		sess.hb = c // heartbeats for all of the peer's connections ride this one
	}
	sess.downSince = time.Time{}
	m.dirty = true
	switch {
	case p == nil && addr == "":
		return sess, nil
	case p == nil:
		p = m.peer(addr)
	case p.instance != instance:
		if p.instance != 0 { // its keys are not its predecessor's: the epoch moves on
			p.epoch.Add(1)
			m.queued -= len(p.queue)
			p.queue = nil
		}
		p.instance = instance
	}
	p.conns++
	p.downSince, p.lapsed = time.Time{}, false
	return sess, p
}

// connClosed detaches a connection that died from the session and record
// its hello bound it to (sess is nil if it never said hello), whose clocks
// start with their last connection gone.
func (m *proto) connClosed(c *conn, sess *session, p *peerState, now time.Time) {
	if sess == nil {
		return
	}
	if sess.hb == c {
		sess.hb = nil // the next tick hands the duty to a survivor
	}
	if sess.conns--; sess.conns == 0 {
		sess.downSince = now
	}
	if p != nil {
		if p.conns--; p.conns == 0 {
			p.downSince = now
		}
	}
}

// exported takes a door reference shipping over a connection of sess into
// the table as h and returns its key: a door already in the table gains a
// holder count and h is deleted (the table's own handle keeps the door
// alive), a new one gets the next key. An expired session — a lease that
// lapsed, a server shut down — refuses it, and h is deleted.
func (m *proto) exported(sess *session, door uint64, h kernel.Handle) (uint64, bool) {
	if sess == nil || sess.expired {
		m.do(action{kind: actDelete, h: h})
		return 0, false
	}
	key, ok := m.byDoor[door]
	if ok {
		m.do(action{kind: actDelete, h: h})
	} else {
		key = m.nextKey
		m.nextKey++
		m.addExport(key, door, h)
	}
	m.exports[key].held[sess]++
	sess.refs[key]++
	if _, labeled := m.labels[door]; labeled {
		m.dirty = true
	}
	return key, true
}

// addExport enters door under key, with no holder yet.
func (m *proto) addExport(key, door uint64, h kernel.Handle) *exportEntry {
	e := &exportEntry{h: h, door: door, held: make(map[*session]int), inline: &dispatch.InlineState{}}
	m.exports[key] = e
	m.byDoor[door] = key
	return e
}

// drop removes count of the references on key held by sess; a count
// larger than what sess holds removes them all.
func (m *proto) drop(key uint64, sess *session, count int) {
	e, ok := m.exports[key]
	if !ok || count <= 0 {
		return
	}
	if e.held[sess] -= count; e.held[sess] <= 0 {
		delete(e.held, sess)
	}
	if sess.refs[key] -= count; sess.refs[key] <= 0 {
		delete(sess.refs, key)
	}
	if _, labeled := m.labels[e.door]; labeled {
		m.dirty = true
	}
	m.reap(key, e)
}

// reap removes an entry no session holds and deletes its handle.
func (m *proto) reap(key uint64, e *exportEntry) {
	if len(e.held) > 0 {
		return
	}
	delete(m.exports, key)
	if m.byDoor[e.door] == key {
		delete(m.byDoor, e.door)
		delete(m.labels, e.door)
	}
	m.do(action{kind: actDelete, h: e.h})
}

// unwrapped consumes the reference one of our own descriptors carried
// home from sess, the peer that sent it, and returns the handle of the
// door it names, valid until the shell performs this event's actions;
// false for a key sess holds no reference on.
func (m *proto) unwrapped(key uint64, sess *session) (kernel.Handle, bool) {
	e, ok := m.exports[key]
	if !ok || e.held[sess] == 0 {
		return 0, false
	}
	m.drop(key, sess, 1)
	return e.h, true
}

// label names a door for the state file, so a restart can rebind its
// export's key.
func (m *proto) label(door uint64, label string) {
	m.labels[door] = label
	if _, exported := m.byDoor[door]; exported {
		m.dirty = true
	}
}

// ---------------------------------------------------------------------
// Importer side: breaker, import epochs and release replay.

func (m *proto) peer(addr string) *peerState {
	p, ok := m.peers[addr]
	if !ok {
		p = &peerState{addr: addr}
		m.peers[addr] = p
	}
	return p
}

// hold returns addr's record for a proxy door or root fetch to forward
// through; it is not forgotten until the holder takes its hold back.
func (m *proto) hold(addr string) *peerState {
	p := m.peer(addr)
	if p.holds++; p.red == nil {
		p.red = scstats.PeerFor(addr)
	}
	return p
}

// admit decides whether a dial to p's address may proceed at now: not while
// the breaker is open (wait says for how long yet) or while its one
// half-open probe is out. An admitted dial's outcome is reported with dialed.
func (m *proto) admit(p *peerState, now time.Time) (wait time.Duration, ok bool) {
	switch p.state {
	case breakerOpen:
		if now.Before(p.openUntil) {
			return p.openUntil.Sub(now), false
		}
		p.state, p.probing = breakerHalfOpen, true
	case breakerHalfOpen:
		if p.probing {
			return 0, false
		}
		p.probing = true
	}
	p.dials++
	return 0, true
}

// dialed records an admitted dial's outcome. A failure opens the breaker
// for a backoff that doubles from BreakerBackoff up to BreakerMaxBackoff; a
// success closes it (the hello before it stopped the peer's clock).
func (m *proto) dialed(p *peerState, ok bool, now time.Time) {
	p.probing, p.dials = false, p.dials-1
	if ok {
		if p.state != breakerClosed {
			m.counts[tBreakerClosed]++
		}
		p.state, p.backoff = breakerClosed, 0
		return
	}
	p.backoff = min(max(2*p.backoff, m.cfg.BreakerBackoff), m.cfg.BreakerMaxBackoff)
	p.openUntil = now.Add(p.backoff)
	if p.state != breakerOpen {
		m.counts[tBreakerOpened]++
	}
	p.state = breakerOpen
}

// proxyReleased is a proxy minted under epoch dropping count references on
// key: the release is sent, unless the epoch lapsed (the exporter has
// reclaimed them already) or the server is shut down.
func (m *proto) proxyReleased(p *peerState, epoch, key uint64, count int) {
	if !m.closed && p.epoch.Load() == epoch {
		m.do(action{kind: actRelease, p: p, epoch: epoch, key: key, count: count})
	}
}

// releaseDropped queues for replay a release the shell found no connection
// for, or whose connection died with the frame unsent — unless its epoch or
// record (a forgotten one too) lapsed meanwhile, or the queue is full.
func (m *proto) releaseDropped(p *peerState, epoch, key uint64, count int) {
	if m.closed || p.lapsed || p.epoch.Load() != epoch || len(p.queue) >= maxQueuedReleases {
		return
	}
	p.queue = append(p.queue, pendingRelease{key: key, count: count})
	m.queued++
}

// replay sends p's queued releases: its peer is reachable again.
func (m *proto) replay(p *peerState) {
	if m.closed || p.lapsed {
		return
	}
	for _, r := range p.queue {
		m.do(action{kind: actRelease, p: p, epoch: p.epoch.Load(), key: r.key, count: r.count})
	}
	m.counts[tReplayed] += int64(len(p.queue))
	m.queued -= len(p.queue)
	p.queue = nil
}

// ---------------------------------------------------------------------
// The clock, persistence and shutdown.

// tick advances the machine to now; stamps are the server's live
// connections. It pings and fails connections (heartbeat), reclaims the
// references of sessions disconnected past the grace, bumps the import
// epoch of peers unreachable past the grace (their queued releases are
// moot), asks for a replay toward peers with releases queued, forgets
// records nothing needs and has the state file written if the durable
// tables changed. With nothing to do it allocates nothing.
func (m *proto) tick(now time.Time, stamps []connStamp) {
	if m.closed {
		return
	}
	m.heartbeat(now.UnixNano(), stamps)
	for _, sess := range m.sessions {
		if sess.conns == 0 && !sess.downSince.IsZero() && now.Sub(sess.downSince) > m.cfg.LeaseGrace {
			m.expire(sess)
		}
	}
	for addr, p := range m.peers {
		if !p.lapsed && !p.downSince.IsZero() && now.Sub(p.downSince) > m.cfg.LeaseGrace {
			p.lapsed = true
			p.epoch.Add(1)
			m.queued -= len(p.queue)
			p.queue = nil
		}
		switch {
		case !p.lapsed && len(p.queue) > 0:
			m.do(action{kind: actReplay, p: p})
		case p.lapsed && p.dials == 0 && p.holds == 0 && !now.Before(p.openUntil):
			delete(m.peers, addr) // lapsed, it has no connection: a hello clears the lapse
			p.red.Release()
		}
	}
	m.flush()
}

// heartbeat fails connections whose peer is silent past the grace and
// pings those idle for a heartbeat interval. A peer's connections share
// its session's clock: silence is judged on the freshest receive over all
// of them (an idle bulk connection is not a dead peer), and only the
// session's heartbeat lead — or a connection still mid-handshake — is
// pinged. A session whose lead closed gets the first survivor.
func (m *proto) heartbeat(now int64, stamps []connStamp) {
	for _, st := range stamps {
		if sess := st.sess; sess != nil {
			sess.fresh = 0
		}
	}
	for _, st := range stamps {
		if sess := st.sess; sess != nil {
			sess.fresh = max(sess.fresh, st.recv)
		}
	}
	for _, st := range stamps {
		recv, lead := st.recv, true
		if sess := st.sess; sess != nil {
			if sess.hb == nil {
				sess.hb = st.c
			}
			recv, lead = sess.fresh, sess.hb == st.c
		}
		switch {
		case now-recv > int64(m.cfg.LeaseGrace):
			m.do(action{kind: actFail, c: st.c})
		case lead && now-st.send >= int64(m.cfg.HeartbeatInterval):
			m.do(action{kind: actPing, c: st.c})
		}
	}
}

// expire reclaims a lapsed session's references exactly as if its peer
// had released every identifier it held: entries drain and the handles of
// those left without a holder are deleted, so unreferenced notifications
// fire and servers (a file server's per-open state, a proxy door
// mid-chain) clean up as if the remote identifiers had been deleted.
func (m *proto) expire(sess *session) {
	delete(m.sessions, sess.peer)
	sess.expired = true
	m.counts[tLeasesExpired]++
	for key, n := range sess.refs {
		m.counts[tRefsReclaimed] += int64(n)
		m.drop(key, sess, n)
	}
	m.dirty = true
}

// flush asks for the state file to be written if the durable tables
// changed since it last was; persistFailed has it retried.
func (m *proto) flush() {
	if m.dirty && m.cfg.StateFile != "" && !m.closed {
		m.dirty = false
		m.do(action{kind: actPersist, state: m.snapshot()})
	}
}

func (m *proto) persistFailed() { m.dirty = true }

// snapshot is the durable subset of the tables: the instance identity, the
// key counter, labeled exports, and every session's counts on labeled
// keys.
func (m *proto) snapshot() *persistedState {
	ps := &persistedState{Instance: m.instance, NextKey: m.nextKey}
	for door, label := range m.labels {
		if key, exported := m.byDoor[door]; exported {
			ps.Exports = append(ps.Exports, persistedExport{Key: key, Label: label})
		}
	}
	for _, sess := range m.sessions {
		p := persistedSession{Instance: sess.peer, Epoch: sess.epoch, Addr: sess.addr}
		for key, n := range sess.refs {
			if _, labeled := m.labels[m.exports[key].door]; labeled {
				p.Refs = append(p.Refs, persistedRef{Key: key, Count: n})
			}
		}
		ps.Sessions = append(ps.Sessions, p)
	}
	return ps
}

// reboundExport is a persisted export the Rebinder resolved to a live door,
// adopted by the shell as h.
type reboundExport struct {
	key, door uint64
	label     string
	h         kernel.Handle
}

// restore loads a checked state file into a fresh machine at now: the
// identity, a key counter keySlack past the persisted one, each session —
// disconnected, with a full grace from now to return — and each rebound
// export under its sessions' persisted counts. A rebound export nobody
// holds is deleted, and counts on keys not rebound are dropped.
func (m *proto) restore(ps *persistedState, rebound []reboundExport, now time.Time) {
	m.instance = ps.Instance
	m.nextKey = max(m.nextKey, ps.NextKey+keySlack)
	for _, r := range rebound {
		m.addExport(r.key, r.door, r.h)
		m.labels[r.door] = r.label
	}
	for _, p := range ps.Sessions {
		sess := &session{peer: p.Instance, epoch: p.Epoch, addr: p.Addr, refs: make(map[uint64]int), downSince: now}
		for _, r := range p.Refs {
			if e, ok := m.exports[r.Key]; ok && r.Count > 0 {
				sess.refs[r.Key], e.held[sess] = r.Count, r.Count
			}
		}
		m.sessions[p.Instance] = sess
	}
	for key, e := range m.exports {
		m.reap(key, e)
	}
	m.dirty = true
}

// shutdown ends the machine: sessions expire, so a late export is refused,
// and leave the table; queued releases are dropped; the table sizes read
// zero from here on. Export entries stay, so calls still in flight resolve
// their keys.
func (m *proto) shutdown() {
	m.closed = true
	for _, sess := range m.sessions {
		sess.expired = true
	}
	clear(m.sessions)
	for _, p := range m.peers {
		p.queue = nil
	}
	m.queued = 0
}
