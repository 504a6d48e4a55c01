package netd

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
)

// This file is the client side's connection management (DESIGN §12): the
// link a server holds toward each peer address it calls.

// role names one of a link's two connections. Which one a request rides is
// decided from its size alone (forwardInfo): a large frame queued behind
// the bulk connection's writer and socket cannot head-of-line block the
// small calls on the call connection — the one thing a second connection
// per peer was measured to buy (EXPERIMENTS E26).
type role int

const (
	roleCall role = iota // dialled by the first call; every request below BulkThreshold
	roleBulk             // dialled by the first request of BulkThreshold bytes or more
)

// link is the pair of dialled connections toward one peer address, held
// in the address's record (peerState). Each role is dialled on demand and
// redialled when dead, independently of the other; a role that cannot get
// a connection of its own borrows the other's. Both share the peer's one
// hello-derived session, so leases, heartbeats and netd.sessions_live
// count peers, not sockets.
type link struct {
	// conns[r] is role r's connection: nil until dialled, possibly dead
	// (live skips it, the next dial replaces it). Stores happen under
	// Server.mu, loads are lock-free.
	conns [2]atomic.Pointer[conn]
	// dialing[r] is role r's dial in progress, which concurrent callers
	// wait on instead of dialling themselves (and instead of each reporting
	// a spurious outcome to the circuit breaker). Guarded by Server.mu.
	dialing [2]*dialFlight
}

// dialFlight is one in-progress dial.
type dialFlight struct {
	done chan struct{} // closed once c/err are set
	c    *conn
	err  error
}

// live returns role r's connection if it is usable, nil otherwise.
func (l *link) live(r role) *conn {
	if c := l.conns[r].Load(); c != nil && !c.isDead() {
		return c
	}
	return nil
}

// getConn returns a live connection to p's address for role r, dialling it
// (with its session handshake) if needed. The steady-state lookup is one
// atomic pointer load: no map, no lock, no contention.
func (s *Server) getConn(p *peerState, r role) (*conn, error) {
	if c := p.link.live(r); c != nil {
		return c, nil
	}
	return s.getConnSlow(p, r)
}

// getConnSlow establishes (or waits for) role r's connection on p's link.
// A dead connection is never handed out: the next call of its role redials.
// Dials are admitted by the per-address circuit breaker, and concurrent
// cold calls of one role share a single dial (singleflight), so one dial's
// outcome is reported to the breaker exactly once. A role whose dial fails
// or is not admitted borrows the other role's live connection rather than
// failing the call; the open breaker then spaces out its redials.
func (s *Server) getConnSlow(p *peerState, r role) (*conn, error) {
	l, addr := &p.link, p.addr
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if c := l.live(r); c != nil {
			s.mu.Unlock()
			return c, nil
		}
		if f := l.dialing[r]; f != nil {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-s.stop:
				return nil, ErrClosed
			}
			switch {
			case f.err != nil:
				return l.borrow(r, f.err)
			case !f.c.isDead():
				return f.c, nil
			case attempt >= 1:
				return l.borrow(r, commErr("connection to %s lost", addr))
			}
			continue // the shared dial's conn died already; try once more
		}
		wait, ok := s.proto.admit(p, time.Now())
		if !ok {
			s.mu.Unlock()
			return l.borrow(r, fmt.Errorf("%w: %s: %w (next probe in %v)", kernel.ErrCommFailure, addr, ErrBreakerOpen, wait.Round(time.Millisecond)))
		}
		f := &dialFlight{done: make(chan struct{})}
		l.dialing[r] = f
		s.mu.Unlock()

		c, err := s.dialAndHello(p)
		s.mu.Lock()
		l.dialing[r] = nil
		s.proto.dialed(p, err == nil, time.Now())
		if err == nil {
			if s.closed {
				err = ErrClosed
			} else {
				l.conns[r].Store(c)
			}
		}
		f.c, f.err = c, err
		s.settle()
		close(f.done)
		if err != nil {
			if c != nil {
				c.fail(ErrClosed)
			}
			return l.borrow(r, err)
		}
		return c, nil
	}
}

// borrow is the fallback for a role that could not get a connection of its
// own: the other role's live connection if there is one, else err.
func (l *link) borrow(r role, err error) (*conn, error) {
	if c := l.live(1 - r); c != nil {
		return c, nil
	}
	return nil, err
}
