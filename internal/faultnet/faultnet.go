// Package faultnet is a deterministic fault-injection harness for the
// network door servers: it wraps sock.Listener, sock.Stream and dialer
// functions so tests can script the failures a real network produces —
// refused dials, hung dials, symmetric and asymmetric partitions,
// added latency, frames truncated mid-write, and ungraceful connection
// kills — without touching a packet filter.
//
// A Net is a control plane for every connection created through its
// wrapped listener or dialer. Faults are flipped at runtime and apply to
// live connections as well as future ones. It composes over the netd
// Transport interface through netd.FuncTransport: the wrapped funcs
// carry the fault control over sock's sockets, so every fault scenario
// runs unchanged on a host:port or a unix: address:
//
//	fn := faultnet.New()
//	tr := netd.FuncTransport{
//		ListenFunc: fn.ListenFunc(nil), // nil inner funcs mean sock's
//		DialFunc:   fn.Dialer(nil),
//	}
//	srv, _ := netd.Start(dom, "127.0.0.1:0", netd.WithTransport(tr))
//	...
//	fn.Partition()      // peer falls silent: reads stall, writes vanish
//	fn.Heal()           // stalled readers wake; traffic resumes
//	fn.CloseAll()       // ungraceful crash of every live connection
//	fn.RefuseDials(true)
//
// Partition semantics mirror TCP's: a severed inbound direction stalls
// reads (data is preserved in the peer's socket buffer, so healing within
// a protocol's grace period resumes cleanly), while a severed outbound
// direction silently discards writes, exactly like packets dropped on the
// floor — the stream is no longer trustworthy afterwards and the protocol
// above is expected to detect the loss and redial. Sever takes effect at
// the next Read/Write call boundary, which for length-prefixed protocols
// is a frame boundary.
package faultnet

import (
	"errors"
	"sync"
	"time"

	"repro/internal/sock"
)

// ErrRefused is returned by a wrapped dialer while RefuseDials is on.
var ErrRefused = errors.New("faultnet: dial refused by fault injection")

// ErrSevered is returned from reads that were stalled by a severed
// direction when the connection is closed out from under them.
var ErrSevered = errors.New("faultnet: connection severed")

// Net is one fault domain: a set of wrapped connections and the faults
// currently applied to them.
type Net struct {
	mu         sync.Mutex
	healed     chan struct{} // closed and replaced on Heal, waking stalled readers
	refuse     bool
	dialDelay  time.Duration
	severIn    bool // stall reads on wrapped conns
	severOut   bool // discard writes on wrapped conns
	delay      time.Duration
	truncate   bool // truncate the next write mid-way, then kill the conn
	killAfterW int  // countdown of writes until a hard kill; <0 disarmed
	conns      map[*Conn]struct{}
}

// New creates an empty fault domain with no faults active.
func New() *Net {
	return &Net{healed: make(chan struct{}), killAfterW: -1, conns: make(map[*Conn]struct{})}
}

// RefuseDials makes the wrapped dialer fail immediately (on) or behave
// normally (off).
func (n *Net) RefuseDials(on bool) {
	n.mu.Lock()
	n.refuse = on
	n.mu.Unlock()
}

// SetDialDelay makes every wrapped dial sleep d before attempting the
// real dial (simulating a routing black hole bounded by the caller's
// dial timeout).
func (n *Net) SetDialDelay(d time.Duration) {
	n.mu.Lock()
	n.dialDelay = d
	n.mu.Unlock()
}

// SetDelay adds d of latency in front of every read.
func (n *Net) SetDelay(d time.Duration) {
	n.mu.Lock()
	n.delay = d
	n.mu.Unlock()
}

// SeverInbound stalls all reads on wrapped connections: the endpoint
// stops hearing its peers, but in-transit data survives in socket
// buffers and is delivered after Heal.
func (n *Net) SeverInbound() {
	n.mu.Lock()
	n.severIn = true
	n.mu.Unlock()
}

// SeverOutbound silently discards all writes on wrapped connections: the
// endpoint's peers stop hearing it. Discarded bytes are gone; a framed
// protocol must treat the stream as corrupt once healed.
func (n *Net) SeverOutbound() {
	n.mu.Lock()
	n.severOut = true
	n.mu.Unlock()
}

// Partition severs both directions: the endpoint is fully isolated but
// its connections stay "up" as TCP would during a link failure.
func (n *Net) Partition() {
	n.mu.Lock()
	n.severIn, n.severOut = true, true
	n.mu.Unlock()
}

// Heal clears every sever and wakes stalled readers.
func (n *Net) Heal() {
	n.mu.Lock()
	n.severIn, n.severOut = false, false
	close(n.healed)
	n.healed = make(chan struct{})
	n.mu.Unlock()
}

// TruncateNextWrite arms a one-shot fault: the next write on any wrapped
// connection sends only its first half and then hard-closes the
// connection, leaving the peer with a frame cut off mid-body.
func (n *Net) TruncateNextWrite() {
	n.mu.Lock()
	n.truncate = true
	n.mu.Unlock()
}

// KillAfterWrites arms a countdown: after k more Write calls across the
// wrapped connections complete, the connection performing the k-th write
// is hard-closed. Pass a negative k to disarm.
func (n *Net) KillAfterWrites(k int) {
	n.mu.Lock()
	n.killAfterW = k
	n.mu.Unlock()
}

// KillOne hard-closes one live wrapped connection (any one) and reports
// whether there was one to kill — the loss of a single connection, as
// opposed to CloseAll's full crash.
func (n *Net) KillOne() bool {
	n.mu.Lock()
	var victim *Conn
	for c := range n.conns {
		victim = c
		break
	}
	n.mu.Unlock()
	if victim == nil {
		return false
	}
	_ = victim.Close()
	return true
}

// CloseAll hard-closes every live wrapped connection — an ungraceful
// crash: no releases, no FIN ordering guarantees above the socket.
func (n *Net) CloseAll() {
	n.mu.Lock()
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Live reports the number of wrapped connections not yet closed.
func (n *Net) Live() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// wrap registers a new wrapped conn.
func (n *Net) wrap(inner sock.Stream) *Conn {
	c := &Conn{Stream: inner, net: n}
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
	return c
}

func (n *Net) drop(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// ListenFunc wraps listen (nil means sock.Listen) so every connection
// accepted through it is under this Net's control — the listener-side
// counterpart of Dialer, for composing a transport's own Listen into a
// netd.FuncTransport.
func (n *Net) ListenFunc(listen func(addr string) (sock.Listener, error)) func(addr string) (sock.Listener, error) {
	if listen == nil {
		listen = sock.Listen
	}
	return func(addr string) (sock.Listener, error) {
		ln, err := listen(addr)
		if err != nil {
			return nil, err
		}
		return &listener{Listener: ln, net: n}, nil
	}
}

// Dialer wraps dial (nil means sock.Dial) so every dialled connection is
// under this Net's control and dials honor RefuseDials and SetDialDelay.
func (n *Net) Dialer(dial func(addr string) (sock.Stream, error)) func(addr string) (sock.Stream, error) {
	if dial == nil {
		dial = sock.Dial
	}
	return func(addr string) (sock.Stream, error) {
		n.mu.Lock()
		refuse, d := n.refuse, n.dialDelay
		n.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
		if refuse {
			return nil, ErrRefused
		}
		inner, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return n.wrap(inner), nil
	}
}

type listener struct {
	sock.Listener
	net *Net
}

func (l *listener) Accept() (sock.Stream, error) {
	inner, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(inner), nil
}

// Conn is one fault-controlled connection.
type Conn struct {
	sock.Stream
	net    *Net
	closed sync.Once
}

// Read applies the inbound faults: stall while severed (waking on Heal
// or Close), then delay, then the real read.
func (c *Conn) Read(p []byte) (int, error) {
	for {
		c.net.mu.Lock()
		stalled := c.net.severIn
		healed := c.net.healed
		delay := c.net.delay
		c.net.mu.Unlock()
		if !stalled {
			if delay > 0 {
				time.Sleep(delay)
			}
			return c.Stream.Read(p)
		}
		// Severed: hold the read until healed or the conn dies. Use a
		// deadline poke so a Close from under us cannot strand the
		// goroutine (SetReadDeadline also wakes blocked readers, but we
		// never enter the inner read while stalled).
		select {
		case <-healed:
		case <-time.After(10 * time.Millisecond):
			// Re-check severed state and liveness.
			c.net.mu.Lock()
			_, live := c.net.conns[c]
			c.net.mu.Unlock()
			if !live {
				return 0, ErrSevered
			}
		}
	}
}

// Write applies the outbound faults: truncation, kill countdowns, and
// severed-direction discard.
func (c *Conn) Write(p []byte) (int, error) {
	c.net.mu.Lock()
	if c.net.truncate {
		c.net.truncate = false
		c.net.mu.Unlock()
		n, _ := c.Stream.Write(p[:len(p)/2])
		_ = c.Close()
		return n, ErrSevered
	}
	kill := false
	if c.net.killAfterW > 0 {
		c.net.killAfterW--
		kill = c.net.killAfterW == 0
		if kill {
			c.net.killAfterW = -1
		}
	}
	severed := c.net.severOut
	c.net.mu.Unlock()
	if severed {
		// Packets on the floor: the caller believes the write succeeded.
		return len(p), nil
	}
	n, err := c.Stream.Write(p)
	if kill {
		_ = c.Close()
	}
	return n, err
}

// Close hard-closes the connection and removes it from the fault domain.
func (c *Conn) Close() error {
	var err error
	c.closed.Do(func() {
		c.net.drop(c)
		err = c.Stream.Close()
	})
	return err
}
