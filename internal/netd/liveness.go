package netd

import (
	"cmp"
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// This file is the shell of the peer-liveness and failure-containment
// layer, whose decisions proto.go makes: sessions and leases on the
// exporter side, and the per-address circuit breaker, proxy poisoning and
// release-replay queue on the importer side. It sits below the
// subcontracts, so every subcontract — reconnectable, replicon, caching —
// inherits the same failure semantics from the network door servers,
// exactly where RAFDA and the ODP channel-objects work argue distribution
// failure policy belongs.

// Liveness gauges, exposed on /metrics and /statz (springfsd -telemetry)
// and summarised by /healthz. Levels (conns/sessions/exports live, releases
// queued) move both ways; the rest are monotonic event counts. The control
// plane's gauges move slot for slot with its tally.
var tallyGauges = [nTally]*scstats.Gauge{
	tExports:       scstats.GaugeFor("netd.exports_live"),
	tSessions:      scstats.GaugeFor("netd.sessions_live"),
	tQueued:        scstats.GaugeFor("netd.releases_queued"),
	tLeasesExpired: scstats.CounterFor("netd.leases_expired"),
	tRefsReclaimed: scstats.CounterFor("netd.refs_reclaimed"),
	tBreakerOpened: scstats.CounterFor("netd.breaker_opened"),
	tBreakerClosed: scstats.CounterFor("netd.breaker_closed"),
	tReplayed:      scstats.CounterFor("netd.releases_replayed"),
}

var (
	gConns = scstats.GaugeFor("netd.conns_live")
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
	gFlushes         = scstats.CounterFor("netd.flushes")
	gFramesCoalesced = scstats.CounterFor("netd.frames_coalesced")
)

// settle ends a control-plane event (proto.go): it moves the gauges by
// what the event changed, releases s.mu, and performs the actions the
// event asked for — outside the lock, because they write to sockets, dial,
// write the state file and fire unreferenced notifications. Called with
// s.mu held.
func (s *Server) settle() {
	var buf [8]action
	acts := append(buf[:0], s.proto.acts...)
	clear(s.proto.acts)
	s.proto.acts = s.proto.acts[:0]
	t := s.proto.tally()
	for i, g := range tallyGauges {
		if d := t[i] - s.shown[i]; d != 0 {
			g.Add(d)
		}
	}
	s.shown = t
	s.mu.Unlock()
	for _, a := range acts {
		s.perform(a)
	}
}

// perform carries out one action.
func (s *Server) perform(a action) {
	switch a.kind {
	case actPing:
		if !a.c.pinging.CompareAndSwap(false, true) {
			return // the last ping is still being written
		}
		// Off the sweeper goroutine: on an idle connection the sender is
		// the writer, a write to a stalled socket blocks, and the sweeper
		// must keep serving the other connections' clocks.
		go func(c *conn) {
			defer c.pinging.Store(false)
			ping := buffer.Get(1)
			ping.WriteByte(msgPing)
			_ = c.send(ping)
			c.sent.Store(false) // the tick stamped it; a write racing this costs one ping at most
		}(a.c)
	case actFail:
		a.c.fail(commErr("peer silent past the heartbeat grace %v", s.cfg.LeaseGrace))
	case actRelease:
		s.sendRelease(a.p, a.epoch, a.key, a.count)
	case actReplay:
		// getConn dials if needed, and dials are breaker-guarded, so a dead
		// peer costs one backed-off probe per open period, not a dial per
		// tick.
		if _, err := s.getConn(a.p, roleCall); err == nil {
			s.mu.Lock()
			s.proto.replay(a.p)
			s.settle()
		}
	case actDelete:
		// The kernel delivers any unreferenced notification asynchronously.
		_ = s.dom.DeleteDoor(a.h)
	case actPersist:
		if writeStateFile(s.cfg.StateFile, a.state) != nil {
			s.mu.Lock()
			s.proto.persistFailed() // the next tick retries
			s.settle()
		}
	}
}

// sendRelease tells p's peer that count references on key died here, on
// either of p's link's connections. A release that finds no live
// connection, or whose connection dies with the frame unsent, goes back to
// the control plane, which queues it for replay unless its epoch lapsed.
func (s *Server) sendRelease(p *peerState, epoch, key uint64, count int) {
	dropped := func() {
		s.mu.Lock()
		s.proto.releaseDropped(p, epoch, key, count)
		s.settle()
	}
	c := cmp.Or(p.link.live(roleCall), p.link.live(roleBulk))
	if c == nil {
		dropped()
		return
	}
	payload := buffer.Get(32)
	payload.WriteByte(msgRelease)
	payload.WriteUint64(key)
	payload.WriteUvarint(uint64(count))
	if err := c.sendDrop(payload, dropped); err != nil {
		dropped()
	}
}

// handleHello binds a connection to its peer session on receipt of the
// handshake frame, on the connection's reader (see hasSession).
func (s *Server) handleHello(c *conn, instance, epoch uint64, listenAddr string) {
	if c.sess != nil {
		return
	}
	s.mu.Lock()
	c.sess, c.peer = s.proto.hello(c, c.peer, instance, epoch, listenAddr)
	s.settle()
	if c.sess != nil {
		close(c.helloed)
	}
}

// sendHello sends this server's handshake frame on c.
func (s *Server) sendHello(c *conn, epoch uint64) error {
	payload := buffer.Get(64)
	payload.WriteByte(msgHello)
	payload.WriteUint64(s.proto.instance)
	payload.WriteUint64(epoch)
	payload.WriteString(s.addr)
	return c.send(payload)
}

// connClosed is the single teardown path for a connection, run on its
// reader when the read loop exits for any reason (EOF, error, heartbeat
// kill, Close). It wakes pending calls, empties the connection's link slot
// so the next call of its role redials, and tells the control plane.
func (s *Server) connClosed(c *conn) {
	c.fail(commErr("connection lost"))
	s.mu.Lock()
	if p := c.peer; p != nil {
		p.link.conns[roleCall].CompareAndSwap(c, nil)
		p.link.conns[roleBulk].CompareAndSwap(c, nil)
	}
	if _, ok := s.allConns[c]; ok {
		delete(s.allConns, c)
		gConns.Add(-1)
	}
	s.proto.connClosed(c, c.sess, c.peer, s.clk.now())
	s.settle()
	_ = c.netc.Close()
}

// sweep is the liveness clock's tick, one per half heartbeat interval: it
// stamps the data path's marks (and new connections) with its own time for
// the control plane's tick — the partition detector, since TCP alone never
// notices a silent peer — counts a ping that tick orders as sent now, and
// trims the buffer pool (buffer.Trim).
func (s *Server) sweep() {
	now := s.clk.now()
	s.mu.Lock()
	for c := range s.allConns {
		if !c.isDead() { // a dead one is on its way to connClosed
			if c.recvd.Swap(false) || c.recvAt == 0 {
				c.recvAt = now.UnixNano()
			}
			if c.sent.Swap(false) || c.sendAt == 0 {
				c.sendAt = now.UnixNano()
			}
			s.stamps = append(s.stamps, connStamp{c: c, sess: c.sess, recv: c.recvAt, send: c.sendAt})
		}
	}
	s.proto.tick(now, s.stamps)
	for _, a := range s.proto.acts {
		if a.kind == actPing {
			a.c.sendAt = now.UnixNano()
		}
	}
	clear(s.stamps)
	s.stamps = s.stamps[:0]
	s.settle()
	buffer.Trim()
}

// clock is the liveness plane's one time (DESIGN §7): now, and a ticker that
// calls tick each d until stop closes. Tests run servers on a manual one.
type clock struct {
	now   func() time.Time
	every func(d time.Duration, stop <-chan struct{}, tick func())
}

var realClock = clock{now: time.Now, every: func(d time.Duration, stop <-chan struct{}, tick func()) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tick()
		}
	}
}}

// Sessions reports the number of live peer sessions (observability).
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.proto.sessions)
}
