package netd

import (
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// This file is the peer-liveness and failure-containment layer: sessions
// and leases on the exporter side, and the per-address circuit breaker,
// proxy poisoning and release-replay queue on the importer side. It sits
// below the subcontracts, so every subcontract — reconnectable, replicon,
// caching — inherits the same failure semantics from the network door
// servers, exactly where RAFDA and the ODP channel-objects work argue
// distribution failure policy belongs.

// Liveness gauges, exposed through the scstats text exposition
// (springfsd -scstats). Levels (conns/sessions/exports live, releases
// queued) move both ways; the rest are monotonic event counts.
var (
	gConns            = scstats.GaugeFor("netd.conns_live")
	gSessions         = scstats.GaugeFor("netd.sessions_live")
	gExports          = scstats.GaugeFor("netd.exports_live")
	gLeasesExpired    = scstats.GaugeFor("netd.leases_expired")
	gRefsReclaimed    = scstats.GaugeFor("netd.refs_reclaimed")
	gBreakerOpened    = scstats.GaugeFor("netd.breaker_opened")
	gBreakerClosed    = scstats.GaugeFor("netd.breaker_closed")
	gReleasesQueued   = scstats.GaugeFor("netd.releases_queued")
	gReleasesReplayed = scstats.GaugeFor("netd.releases_replayed")
	// gServeInflight is the admission counter, summed over the process's
	// servers: incoming calls admitted and not yet replied to, so handlers
	// blocked inside the server are visible from outside it.
	gServeInflight = scstats.GaugeFor("netd.serve_inflight")
)

// Data-path gauges (E15): the frames accepted by connections and not yet
// written (or discarded), and the flush/coalescing counters — one flush is
// one write syscall — whose ratio is the mean frames per write.
var (
	gSendQueueDepth  = scstats.GaugeFor("netd.sendq_depth")
	gFlushes         = scstats.GaugeFor("netd.flushes")
	gFramesCoalesced = scstats.GaugeFor("netd.frames_coalesced")
)

// session is one remote peer's lease on this exporter: every reference
// handed to the peer is recorded here, and reclaimed in one sweep if the
// peer stays gone past the lease grace period. Sessions are keyed by the
// peer's random per-process instance identity, so a peer that redials
// (same process, new TCP connection) keeps its references, while a peer
// that restarts presents a new instance and the old session ages out.
type session struct {
	peer      uint64         // remote instance identity (from its hello)
	epoch     uint64         // remote's connection epoch at the latest hello
	addr      string         // remote's advertised listen address ("" if none)
	refs      map[uint64]int // export key → references held by this peer
	conns     map[*conn]struct{}
	hb        *conn     // designated heartbeat connection; nil until a hello
	downSince time.Time // zero while at least one connection is live
	expired   bool      // set when the lease lapses; rejects late exports
}

// peerState is the importer-side view of one remote address: the dial
// circuit breaker, the import epoch used to poison proxy doors once our
// lease there must be presumed lost, and the queue of release messages
// waiting for the peer to come back.
type peerState struct {
	addr string

	// Circuit breaker. After a failed dial the breaker opens for an
	// exponentially growing period; when the period lapses a single
	// half-open probe dial is allowed, and its outcome closes or
	// re-opens the breaker. While open, calls fail in O(1) instead of
	// each paying the dial timeout.
	state     int // breakerClosed | breakerOpen | breakerHalfOpen
	backoff   time.Duration
	openUntil time.Time
	probing   bool

	// Lease-loss containment. downSince is set when the last connection
	// to the address dies; once it exceeds the lease grace period the
	// exporter must be presumed to have reclaimed our references, so the
	// import epoch is bumped — poisoning every proxy door minted under
	// the old epoch — and the queued releases are dropped as moot.
	// epoch is atomic so proxy doors can check poisoning without taking
	// s.mu on every forwarded call (peerState pointers are stable: the
	// peers map only grows).
	epoch     atomic.Uint64
	downSince time.Time
	lapsed    bool
	queue     []pendingRelease

	// red is the per-peer RED block (rate/errors/duration histogram),
	// interned once here so the forward path records without a lookup.
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

// peerLocked returns (creating if needed) the state block for addr.
// Callers hold s.mu.
func (s *Server) peerLocked(addr string) *peerState {
	p, ok := s.peers[addr]
	if !ok {
		p = &peerState{addr: addr, red: scstats.PeerFor(addr)}
		s.peers[addr] = p
	}
	return p
}

// breakerFailLocked records a failed dial: open the breaker with
// exponential backoff. Callers hold s.mu.
func (s *Server) breakerFailLocked(p *peerState) {
	p.probing = false
	if p.backoff == 0 {
		p.backoff = s.cfg.BreakerBackoff
	} else {
		p.backoff *= 2
		if p.backoff > s.cfg.BreakerMaxBackoff {
			p.backoff = s.cfg.BreakerMaxBackoff
		}
	}
	p.openUntil = time.Now().Add(p.backoff)
	if p.state != breakerOpen {
		gBreakerOpened.Add(1)
	}
	p.state = breakerOpen
}

// breakerOKLocked records a successful dial+handshake: close the breaker
// and clear the disconnection clock (we reconnected within grace, or the
// epoch was already bumped and new imports start fresh). Callers hold
// s.mu.
func (s *Server) breakerOKLocked(p *peerState) {
	p.probing = false
	if p.state != breakerClosed {
		gBreakerClosed.Add(1)
	}
	p.state = breakerClosed
	p.backoff = 0
	p.downSince = time.Time{}
	p.lapsed = false
}

// breakerAdmitLocked decides whether a dial to p may proceed now. It
// returns false while the breaker is open or another probe is in flight.
// Callers hold s.mu; on true the caller must report the dial's outcome
// via breakerOKLocked / breakerFailLocked.
func (s *Server) breakerAdmitLocked(p *peerState, now time.Time) bool {
	switch p.state {
	case breakerOpen:
		if now.Before(p.openUntil) {
			return false
		}
		p.state = breakerHalfOpen
		p.probing = true
		return true
	case breakerHalfOpen:
		if p.probing {
			return false
		}
		p.probing = true
		return true
	default:
		return true
	}
}

// handleHello binds a connection to its peer session on receipt of the
// handshake frame. A reconnecting peer (same instance) rejoins its
// existing session, clearing the lease-expiry clock.
func (s *Server) handleHello(c *conn, instance, epoch uint64, listenAddr string) {
	s.mu.Lock()
	if s.closed || c.helloDone {
		s.mu.Unlock()
		return
	}
	sess, ok := s.sessions[instance]
	if !ok {
		sess = &session{
			peer:  instance,
			refs:  make(map[uint64]int),
			conns: make(map[*conn]struct{}),
		}
		s.sessions[instance] = sess
		gSessions.Add(1)
	}
	sess.epoch = epoch
	if listenAddr != "" {
		sess.addr = listenAddr
	}
	sess.conns[c] = struct{}{}
	if sess.hb == nil || sess.hb.isDead() {
		sess.hb = c // heartbeats for all of the peer's connections ride this one
	}
	sess.downSince = time.Time{}
	s.markDirtyLocked()
	c.mu.Lock() // s.mu → c.mu, the order getConn uses via isDead
	c.sess = sess
	c.peerAddr = listenAddr
	c.helloDone = true
	c.mu.Unlock()
	s.mu.Unlock()
	close(c.helloed)
}

// sendHello sends this server's handshake frame on c.
func (s *Server) sendHello(c *conn, epoch uint64) error {
	payload := buffer.Get(64)
	payload.WriteByte(msgHello)
	payload.WriteUint64(s.instance)
	payload.WriteUint64(epoch)
	payload.WriteString(s.addr)
	return c.send(payload)
}

// connClosed is the single teardown path for a connection, run when its
// read loop exits for any reason (EOF, error, heartbeat kill, Close). It
// wakes pending calls, empties the connection's link slot so the next call
// of its role redials, detaches the session (starting its lease-expiry
// clock if this was the last connection), and starts the importer-side
// disconnection clock for the peer's address.
func (s *Server) connClosed(c *conn, addr string) {
	c.fail(commErr("connection lost"))
	s.mu.Lock()
	if addr != "" {
		l := s.linkFor(addr)
		l.conns[roleCall].CompareAndSwap(c, nil)
		l.conns[roleBulk].CompareAndSwap(c, nil)
	}
	if _, ok := s.allConns[c]; ok {
		delete(s.allConns, c)
		gConns.Add(-1)
	}
	if sess := c.sess; sess != nil {
		delete(sess.conns, c)
		if sess.hb == c {
			sess.hb = nil
			for sc := range sess.conns {
				if !sc.isDead() {
					sess.hb = sc // hand the heartbeat duty to a survivor
					break
				}
			}
		}
		if len(sess.conns) == 0 && sess.downSince.IsZero() {
			sess.downSince = time.Now()
		}
	}
	pa := c.peerAddr
	if pa == "" {
		pa = addr
	}
	// The link's other connection, if it survives, keeps the peer up.
	if pa != "" && s.liveConn(pa) == nil {
		p := s.peerLocked(pa)
		if p.downSince.IsZero() {
			p.downSince = time.Now()
		}
	}
	s.mu.Unlock()
	_ = c.netc.Close()
}

// sweeper is the liveness clock: it sends heartbeats, kills connections
// whose peers have been silent past the grace period (partition
// detection — TCP alone never notices a silent peer), expires leases of
// peers gone past grace (reclaiming their references and firing the
// unreferenced cascade), poisons imports whose exporter-side lease must
// be presumed lost, and replays queued release messages.
func (s *Server) sweeper() {
	defer s.wg.Done()
	tick := s.cfg.HeartbeatInterval / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		s.heartbeat(now)
		s.expireLeases(now)
		s.expireImports(now)
		s.replayQueued()
		s.flushState()
	}
}

// heartbeat pings connections idle on the send side and kills those
// silent on the receive side past the grace period. A peer's connections
// share their session's liveness clock: silence is judged on the session's
// freshest receive across all of them (an idle bulk connection is not a
// dead peer), and only the designated heartbeat connection — or a
// sessionless conn still mid-handshake — sends pings.
func (s *Server) heartbeat(now time.Time) {
	type hbConn struct {
		c    *conn
		sess *session
		lead bool
	}
	s.mu.Lock()
	conns := make([]hbConn, 0, len(s.allConns))
	sessRecv := make(map[*session]int64, len(s.sessions))
	for c := range s.allConns {
		sess := c.sess
		lead := sess == nil || sess.hb == nil || sess.hb == c
		conns = append(conns, hbConn{c: c, sess: sess, lead: lead})
		if sess != nil {
			if r := c.lastRecv.Load(); r > sessRecv[sess] {
				sessRecv[sess] = r
			}
		}
	}
	s.mu.Unlock()
	for _, hc := range conns {
		c := hc.c
		recv := c.lastRecv.Load()
		if hc.sess != nil {
			recv = sessRecv[hc.sess]
		}
		silent := now.Sub(time.Unix(0, recv))
		if silent > s.cfg.LeaseGrace {
			c.fail(commErr("peer silent for %v (heartbeat grace %v)", silent.Round(time.Millisecond), s.cfg.LeaseGrace))
			continue
		}
		if !hc.lead {
			continue
		}
		idle := now.Sub(time.Unix(0, c.lastSend.Load()))
		if idle >= s.cfg.HeartbeatInterval && c.pinging.CompareAndSwap(false, true) {
			// Off the sweeper goroutine: on an idle connection the sender
			// is the writer, a write to a stalled socket blocks, and the
			// sweeper must keep serving the other connections' clocks.
			go func(c *conn) {
				defer c.pinging.Store(false)
				ping := buffer.Get(1)
				ping.WriteByte(msgPing)
				_ = c.send(ping)
			}(c)
		}
	}
}

// expireLeases reclaims the references of peers whose sessions have had
// no connection for longer than the lease grace period. Reclamation is
// exactly equivalent to the peer having released every identifier it
// held: export entries drain and unreferenced notifications fire, so
// servers (a file server's per-open state, a proxy door mid-chain)
// clean up as if the remote identifiers had been deleted.
func (s *Server) expireLeases(now time.Time) {
	s.mu.Lock()
	for instance, sess := range s.sessions {
		if len(sess.conns) != 0 || sess.downSince.IsZero() || now.Sub(sess.downSince) <= s.cfg.LeaseGrace {
			continue
		}
		delete(s.sessions, instance)
		sess.expired = true
		gSessions.Add(-1)
		gLeasesExpired.Add(1)
		reclaimed := 0
		for key, n := range sess.refs {
			reclaimed += n
			s.dropSessionRefsLocked(key, sess)
		}
		gRefsReclaimed.Add(int64(reclaimed))
		s.markDirtyLocked()
	}
	s.mu.Unlock()
}

// dropSessionRefsLocked removes every reference sess holds on key,
// deleting the export entry when no session holds it any longer.
// Callers hold s.mu.
func (s *Server) dropSessionRefsLocked(key uint64, sess *session) {
	e, ok := s.exports[key]
	if !ok {
		return
	}
	delete(e.held, sess)
	if len(e.held) == 0 {
		s.removeExportLocked(key, e)
	}
}

// expireImports bumps the import epoch for addresses unreachable past
// the grace period: the exporter there must be presumed to have
// reclaimed our references, so proxy doors minted under the old epoch
// are poisoned (they fail fast, in the retryable class) and queued
// releases for them are dropped as moot.
func (s *Server) expireImports(now time.Time) {
	s.mu.Lock()
	for _, p := range s.peers {
		if p.lapsed || p.downSince.IsZero() || now.Sub(p.downSince) <= s.cfg.LeaseGrace {
			continue
		}
		p.lapsed = true
		p.epoch.Add(1)
		if n := len(p.queue); n > 0 {
			p.queue = nil
			gReleasesQueued.Add(int64(-n))
		}
	}
	s.mu.Unlock()
}

// replayQueued retries queued release messages toward peers that are
// reachable again. Dials are breaker-guarded, so a dead peer costs one
// backed-off probe per open period, not a dial per sweep.
func (s *Server) replayQueued() {
	s.mu.Lock()
	var addrs []string
	for addr, p := range s.peers {
		if len(p.queue) > 0 && !p.lapsed {
			addrs = append(addrs, addr)
		}
	}
	s.mu.Unlock()
	for _, addr := range addrs {
		c, err := s.getConn(addr, roleCall)
		if err != nil {
			continue
		}
		s.flushReleases(c, addr)
	}
}

// queueReleaseLocked enqueues a release for replay. Callers hold s.mu.
func (s *Server) queueReleaseLocked(p *peerState, key uint64, count int) {
	if len(p.queue) >= maxQueuedReleases {
		return // bounded; the exporter's lease grace caps the leak anyway
	}
	p.queue = append(p.queue, pendingRelease{key: key, count: count})
	gReleasesQueued.Add(1)
}

// flushReleases replays addr's queued releases over c, requeueing the
// remainder if the connection fails mid-flush.
func (s *Server) flushReleases(c *conn, addr string) {
	s.mu.Lock()
	p := s.peerLocked(addr)
	q := p.queue
	p.queue = nil
	s.mu.Unlock()
	for i, r := range q {
		payload := buffer.Get(32)
		payload.WriteByte(msgRelease)
		payload.WriteUint64(r.key)
		payload.WriteUvarint(uint64(r.count))
		rel := r
		err := c.sendDrop(payload, func() {
			// The frame was queued but the connection died before it
			// was flushed: put the release back unless the import epoch
			// already lapsed (then it is moot).
			s.mu.Lock()
			if !s.closed && !p.lapsed {
				s.queueReleaseLocked(p, rel.key, rel.count)
			}
			s.mu.Unlock()
		})
		if err != nil {
			s.mu.Lock()
			p.queue = append(q[i:], p.queue...)
			s.mu.Unlock()
			return
		}
		gReleasesQueued.Add(-1)
		gReleasesReplayed.Add(1)
	}
}

// Sessions reports the number of live peer sessions (observability).
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
