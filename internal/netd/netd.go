// Package netd implements the network door servers that extend the kernel
// door mechanism transparently over the network (§3.3): forwarding door
// invocations between machines and mapping door identifiers to and from an
// extended network form.
//
// Each machine (kernel.Kernel) runs one Server. Exporting a door assigns
// it a key in the server's export table; the pair (address, key) is the
// door identifier's network form. Importing a descriptor fabricates a
// proxy door whose target forwards calls over a pooled TCP connection.
// Distributed reference counting is sound by construction: every
// descriptor shipped carries one reference at its exporter, and a proxy
// door's unreferenced notification releases it — so a door stays alive
// exactly as long as identifiers for it exist anywhere, and server-side
// unreferenced notifications keep working across machines. A door
// re-imported by its home machine is unwrapped to the real door rather
// than proxied; doors traveling A→B→C form proxy chains (the Spring
// network servers shortcut these; the chain is semantically equivalent).
//
// The server also publishes named bootstrap roots: whole objects
// (marshalled through their subcontracts) that remote machines fetch to
// obtain their first object — typically a naming context.
//
// # Failure semantics
//
// Purely refcount-based distributed collection (Spring's network servers
// included) leaks an exporter's entries forever when a peer dies without
// releasing its references; the paper left the repair out of scope. Here
// a peer-liveness layer bounds it. Every connection opens with a session
// handshake (a hello frame carrying the peer's per-process instance
// identity) and exchanges heartbeats; exported references are tagged with
// the receiving peer's session. When a peer crashes or partitions and
// stays gone past the lease grace period, the exporter reclaims that
// session's references exactly as if the peer had released them: export
// entries drain and unreferenced notifications fire, so server state
// (per-open files, mid-chain proxy doors) is cleaned up and the release
// cascade propagates down proxy chains.
//
// The importer side contains failures symmetrically: calls on a dead
// connection fail fast in the kernel.ErrCommFailure class (retryable, so
// reconnectable and replicon recover); a per-address circuit breaker with
// exponential backoff and a half-open probe keeps calls to a dead peer
// from each paying a dial timeout; release messages that cannot be sent
// are queued and replayed when the peer returns; and once a peer has been
// unreachable past the grace period the proxy doors imported from it are
// poisoned — their references were reclaimed over there — so they fail in
// O(1) until the application re-resolves. Intervals are configured with
// Config; the fault-injection harness in internal/faultnet drives all of
// this deterministically in tests.
package netd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/sock"
	"repro/internal/trace"
)

// Errors returned by network door operations. All transport-level failures
// wrap kernel.ErrCommFailure so subcontracts classify them uniformly.
var (
	// ErrNoRoot is returned when a requested bootstrap root is not
	// published.
	ErrNoRoot = errors.New("netd: no such root")
	// ErrClosed is returned when operating on a closed server.
	ErrClosed = errors.New("netd: server closed")
	// ErrBreakerOpen is returned (wrapped in kernel.ErrCommFailure) while
	// the per-address circuit breaker is open: the peer failed recently
	// and the backoff period has not lapsed, so the call fails in O(1)
	// instead of paying a dial timeout.
	ErrBreakerOpen = errors.New("netd: peer breaker open")
	// ErrLeaseExpired is returned (wrapped in kernel.ErrCommFailure) from
	// a proxy door poisoned by lease loss: its exporter was unreachable
	// past the grace period and must be presumed to have reclaimed the
	// references behind the proxy.
	ErrLeaseExpired = errors.New("netd: peer lease expired")
)

// Config carries the transport, liveness and containment tunables. Zero
// fields take the documented defaults; defaulting happens in one place
// (withDefaults, at Start). cmd/springfsd and cmd/fsh expose these as
// flags.
type Config struct {
	// CallTimeout bounds the reply wait of one forwarded call (further
	// bounded by the invocation context's deadline). Default 10s.
	CallTimeout time.Duration
	// DialTimeout bounds one connection attempt. Default 3s.
	DialTimeout time.Duration
	// HeartbeatInterval is how often an otherwise idle connection is
	// pinged. Default 1s.
	HeartbeatInterval time.Duration
	// LeaseGrace is how long a peer may be silent (no frames on any
	// connection) or disconnected before its session's references are
	// reclaimed, and symmetrically how long an importer waits before
	// poisoning proxies from an unreachable exporter. Default 10s.
	LeaseGrace time.Duration
	// BreakerBackoff is the breaker's first open period after a failed
	// dial; it doubles per consecutive failure up to BreakerMaxBackoff.
	// Defaults 100ms and 15s.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// BulkThreshold is the request size, in bytes, at or above which a
	// call rides the peer link's bulk connection instead of its call
	// connection, so large frames cannot head-of-line block small calls.
	// Default 8KiB.
	BulkThreshold int
	// Transport supplies the listener and dialer (transport tiers, fault
	// injection). Nil defaults to TCPTransport.
	Transport Transport
	// StateFile, when set, makes the server durable (E19): the
	// session/lease table, labeled exports and the instance identity are
	// persisted there (atomically, from the sweeper), and a server
	// restarted against the same file rejoins the network under its old
	// identity. Empty disables persistence.
	StateFile string
	// Rebinder resolves a persisted export label back to a live door
	// reference on restart (ownership of the returned reference passes
	// to the server). Labels come from LabelDoor and the automatic
	// "root:<name>/<i>" family; see RootRebinder. Nil means labeled
	// exports are not recovered.
	Rebinder func(label string) (kernel.Ref, bool)
	// Dispatch tunes serve-side dispatch (E20, E25): bounded admission and
	// the adaptive inline fast path. The zero value takes the documented
	// defaults.
	Dispatch DispatchConfig
}

// DispatchConfig tunes how incoming calls are executed: admitted against
// the in-flight bounds, then run on the reader goroutine when the door has
// proved non-blocking, and on a goroutine of their own otherwise. Zero
// fields take the documented defaults; negative values disable the
// corresponding mechanism where noted.
type DispatchConfig struct {
	// MaxInflight caps admitted-and-unreplied calls across the whole
	// server; past it calls are shed immediately with a retryable
	// kernel.ErrOverload instead of queueing without bound. Default
	// 1024; negative means unlimited.
	MaxInflight int
	// MaxPerPeer caps admitted calls per peer connection, so one hot
	// client cannot consume the whole server bound. Default
	// MaxInflight/2 (0 falls back with MaxInflight); negative means
	// unlimited.
	MaxPerPeer int
	// InlineBudget is how much handler execution time one reader may
	// spend inline per read batch before giving calls goroutines of their
	// own. Default 200µs; negative disables the inline fast path.
	InlineBudget time.Duration
	// InlineThreshold is the completion time under which a handler
	// counts toward inline promotion (and over which it is demoted).
	// Default 50µs; negative means nothing is ever promoted.
	InlineThreshold time.Duration
}

// withDefaults is the single defaulting path: every zero field takes its
// documented default, and the result is the exact configuration the
// server runs with (Server keeps the normalized copy).
func (cfg Config) withDefaults() Config {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.LeaseGrace == 0 {
		cfg.LeaseGrace = 10 * time.Second
	}
	if cfg.BreakerBackoff == 0 {
		cfg.BreakerBackoff = 100 * time.Millisecond
	}
	if cfg.BreakerMaxBackoff == 0 {
		cfg.BreakerMaxBackoff = 15 * time.Second
	}
	if cfg.BulkThreshold == 0 {
		cfg.BulkThreshold = 8 << 10
	}
	if cfg.Transport == nil {
		cfg.Transport = TCPTransport{}
	}
	if cfg.Dispatch.MaxInflight == 0 {
		cfg.Dispatch.MaxInflight = 1024
	}
	if cfg.Dispatch.MaxPerPeer == 0 {
		if cfg.Dispatch.MaxInflight > 0 {
			cfg.Dispatch.MaxPerPeer = cfg.Dispatch.MaxInflight / 2
		} else {
			cfg.Dispatch.MaxPerPeer = -1
		}
	}
	if cfg.Dispatch.InlineBudget == 0 {
		cfg.Dispatch.InlineBudget = 200 * time.Microsecond
	}
	if cfg.Dispatch.InlineThreshold == 0 {
		cfg.Dispatch.InlineThreshold = 50 * time.Microsecond
	}
	return cfg
}

// Option adjusts the configuration a Server starts with.
type Option func(*Config)

// With overlays an explicit Config: each non-zero field replaces the
// accumulated value and zero fields leave it alone, so several compose in
// either order. It is the one way to configure a Server.
func With(cfg Config) Option {
	return func(c *Config) {
		if cfg.CallTimeout != 0 {
			c.CallTimeout = cfg.CallTimeout
		}
		if cfg.DialTimeout != 0 {
			c.DialTimeout = cfg.DialTimeout
		}
		if cfg.HeartbeatInterval != 0 {
			c.HeartbeatInterval = cfg.HeartbeatInterval
		}
		if cfg.LeaseGrace != 0 {
			c.LeaseGrace = cfg.LeaseGrace
		}
		if cfg.BreakerBackoff != 0 {
			c.BreakerBackoff = cfg.BreakerBackoff
		}
		if cfg.BreakerMaxBackoff != 0 {
			c.BreakerMaxBackoff = cfg.BreakerMaxBackoff
		}
		if cfg.BulkThreshold != 0 {
			c.BulkThreshold = cfg.BulkThreshold
		}
		if cfg.Transport != nil {
			c.Transport = cfg.Transport
		}
		if cfg.StateFile != "" {
			c.StateFile = cfg.StateFile
		}
		if cfg.Rebinder != nil {
			c.Rebinder = cfg.Rebinder
		}
		if cfg.Dispatch != (DispatchConfig{}) {
			c.Dispatch = cfg.Dispatch
		}
	}
}

// Server is one machine's network door server.
type Server struct {
	dom  *kernel.Domain
	ln   sock.Listener
	addr string

	// cfg is the normalized configuration, fixed at Start (the sweeper
	// and forwarders read it concurrently, so it is not settable
	// afterwards).
	cfg Config

	mu       sync.Mutex
	proto    *proto // the control plane (proto.go): events under mu, actions after it
	shown    tally  // what settle last published of proto's tally
	roots    map[string]*core.Object
	allConns map[*conn]struct{} // every live connection, for teardown
	closed   bool

	// links holds the dialled connections, one *link per peer address
	// (link.go); the forward fast path reads it without taking mu.
	links sync.Map

	// inflight is the server-wide admission counter against
	// cfg.Dispatch.MaxInflight: calls admitted and not yet replied to.
	inflight atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// Start launches a network door server for dom's kernel, listening on
// listenAddr ("127.0.0.1:0" picks a free TCP port; a host is an IP
// literal, localhost or empty, never a name — see package sock; address
// syntax beyond that belongs to the configured transport — SameMachine
// accepts "unix:/path"). dom should be a dedicated domain for the network
// server. Options adjust the configuration; zero fields take the
// documented defaults in one place.
func Start(dom *kernel.Domain, listenAddr string, opts ...Option) (*Server, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg = cfg.withDefaults()
	ln, err := cfg.Transport.Listen(listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netd: listen %s: %w", listenAddr, err)
	}
	s := &Server{
		dom:      dom,
		ln:       ln,
		addr:     ln.Addr(),
		cfg:      cfg,
		proto:    newProto(cfg, rand.Uint64()),
		roots:    make(map[string]*core.Object),
		allConns: make(map[*conn]struct{}),
		stop:     make(chan struct{}),
	}
	if cfg.StateFile != "" {
		if err := s.loadState(); err != nil {
			_ = ln.Close()
			return nil, err
		}
		// Make the identity durable before serving: a crash before the
		// first sweep must not mint a new instance on the next boot.
		s.flushState()
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.sweeper()
	return s, nil
}

// Addr returns the server's advertised address.
func (s *Server) Addr() string { return s.addr }

// Instance returns the server's per-process instance identity — random
// at first boot, restored from the state file by a durable restart.
func (s *Server) Instance() uint64 { return s.proto.instance }

// Close stops the listener, the liveness sweeper, and tears down all
// connections. In-flight calls fail with communications errors. A
// durable server flushes its state file first, so a clean shutdown
// restarts with current tables.
func (s *Server) Close() error {
	s.flushState()
	return s.shutdown()
}

// Kill tears the server down without flushing the state file — the
// SIGKILL simulation for crash tests: the state file stays whatever the
// sweeper last wrote, and a unix socket file stays where it was bound,
// exactly as after a power loss.
func (s *Server) Kill() error {
	if ul, ok := s.ln.(interface{ SetUnlinkOnClose(bool) }); ok {
		ul.SetUnlinkOnClose(false)
	}
	return s.shutdown()
}

func (s *Server) shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := s.allConns // no one else sees this map once it is replaced
	s.allConns = make(map[*conn]struct{})
	gConns.Add(int64(-len(conns)))
	s.proto.shutdown() // and exports from lingering in-flight calls are refused
	s.settle()

	close(s.stop)
	err := s.ln.Close()
	for c := range conns {
		c.fail(ErrClosed)
	}
	s.wg.Wait()
	return err
}

// commErr wraps a transport failure in the kernel's communications class.
func commErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", kernel.ErrCommFailure, fmt.Sprintf(format, args...))
}

// stats is the network door servers' metrics block: one entry per
// forwarded call, with deadline/cancellation endings broken out.
// serveStats meters the other direction — calls arriving off the wire and
// dispatched into local doors — so a daemon that mostly *serves* still
// shows its traffic on /metrics and /statz (springfsd -telemetry).
var (
	stats      = scstats.For("netd")
	serveStats = scstats.For("netd(serve)")
)

// Interned span names for the traced data path (see internal/trace):
// spanSend brackets the whole client leg of a forwarded call — its span ID
// rides the wire header, so everything the server records nests under it;
// spanServe brackets the server-side door dispatch; spanReply marks the
// moment the reply frame was queued.
var (
	spanSend  = trace.Name("netd.send")
	spanServe = trace.Name("netd.serve")
	spanReply = trace.Name("netd.reply")
	// spanDispatchWait brackets a call's wait for the goroutine it was
	// given (admission → the handler about to start), separating that wait
	// from run time in the trace waterfall. Inline calls never open it.
	spanDispatchWait = trace.Name("netd.dispatch.wait")
)

// ---------------------------------------------------------------------
// Export / import of door identifiers.

// exportSlot maps an in-flight door reference to its network form,
// transferring the reference into the export table, held under the lease
// session of the connection it ships over.
func (s *Server) exportSlot(slot buffer.Door, c *conn) (descriptor, error) {
	ref, ok := slot.(kernel.Ref)
	if !ok {
		return descriptor{}, fmt.Errorf("netd: cannot export %T", slot)
	}
	door, inline := ref.DoorID(), ref.InlineHint()
	h := s.dom.AdoptRef(ref)
	s.mu.Lock()
	key, ok := s.proto.exported(c.sess, door, h, inline)
	s.settle()
	if !ok {
		return descriptor{}, commErr("no live session to export over")
	}
	return descriptor{Addr: s.addr, Key: key}, nil
}

// importDesc converts a network form back into a kernel door reference: a
// proxy door for remote descriptors, the real door for one coming home.
// A fabricated proxy captures the exporter address's current import
// epoch; if the exporter later stays unreachable past the lease grace
// period the epoch is bumped and the proxy is poisoned.
func (s *Server) importDesc(desc descriptor) (kernel.Ref, error) {
	if desc.Addr == s.addr {
		// One of our own doors returning home: unwrap to the real door,
		// consuming the remote reference the descriptor carried.
		s.mu.Lock()
		h, ok := s.proto.unwrapped(desc.Key)
		var ref kernel.Ref
		var err error
		if ok {
			ref, err = s.dom.RefOf(h) // before settle deletes h, if that was its last holder
		}
		s.settle()
		if !ok {
			return kernel.Ref{}, fmt.Errorf("netd: stale home descriptor key %d", desc.Key)
		}
		return ref, err
	}
	s.mu.Lock()
	p := s.proto.peer(desc.Addr)
	epoch := p.epoch.Load() // the import epoch the proxy is minted under
	s.settle()
	// The peerState pointer is captured so the per-call poison check is
	// one atomic load, not a trip through s.mu; peer entries are never
	// removed, so the pointer stays valid for the proxy's lifetime.
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		return s.forward(desc, p, epoch, req, info)
	}
	unref := func() {
		s.mu.Lock()
		s.proto.proxyReleased(p, epoch, desc.Key, 1)
		s.settle()
	}
	h, _ := s.dom.CreateDoorInfo(proc, unref)
	ref, err := s.dom.RefOf(h)
	if err != nil {
		return kernel.Ref{}, err
	}
	if err := s.dom.DeleteDoor(h); err != nil {
		return kernel.Ref{}, err
	}
	return ref, nil
}

// Exports reports the number of live export entries (observability).
func (s *Server) Exports() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.proto.exports)
}

// ---------------------------------------------------------------------
// Client side: forwarding calls through proxy doors.

// forward executes one door call against a remote descriptor. The
// invocation context governs the whole leg: an already-ended context
// aborts before anything is sent, the wire header ships the remaining
// budget so the server machine inherits it, and the reply wait is bounded
// by min(s.cfg.CallTimeout, remaining budget) and by the cancellation channel.
func (s *Server) forward(desc descriptor, p *peerState, epoch uint64, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	begin := stats.Begin()
	// The send span opens before forwardInfo writes the wire header, so
	// the header carries this span's ID and the server side's spans become
	// its children.
	sp := trace.Begin(info, spanSend)
	reply, err := s.forwardInfo(desc, p, epoch, req, info)
	sp.End(info, err)
	// One clock pair covers both the netd aggregate and the per-peer RED
	// histogram: EndCall returns the duration it measured.
	d := stats.EndCall(begin, scstats.OpNone, info.ExemplarTrace(), err)
	p.red.Record(d, info.ExemplarTrace(), err)
	return reply, err
}

// settleReply consumes a settled future on the ready path: a delivered
// reply frame is parsed into the result the caller now owns, anything else
// is the connection's death notice. The future returns to the pool here —
// the waiter is its sole owner once the ready signal is drained.
func (s *Server) settleReply(fut *callFuture, desc descriptor) (*buffer.Buffer, error) {
	st := fut.state.Load()
	reply := fut.reply
	fut.reply = nil
	putFuture(fut)
	if st != futDelivered {
		return nil, commErr("connection to %s lost", desc.Addr)
	}
	return s.parseReply(reply, desc)
}

func (s *Server) forwardInfo(desc descriptor, p *peerState, epoch uint64, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	if err := info.Err(); err != nil {
		return nil, err
	}
	if p.epoch.Load() != epoch {
		return nil, fmt.Errorf("%w: proxy door to %s: %w", kernel.ErrCommFailure, desc.Addr, ErrLeaseExpired)
	}
	// Bulk steering happens at routing, by payload size alone: isolating
	// large frames on their own connection is what keeps them from
	// head-of-line blocking small calls.
	r := roleCall
	if req.Size() >= s.cfg.BulkThreshold {
		r = roleBulk
	}
	c, err := s.getConn(desc.Addr, r)
	if err != nil {
		return nil, err
	}
	payload := buffer.Get(64 + req.Size()) // holds the header, ctx and descriptors (the 64) and the arguments, copied in
	payload.WriteByte(msgCall)
	reqID, fut := c.register()
	payload.WriteUint64(reqID)
	payload.WriteUint64(desc.Key)
	putInfoHeader(payload, info)
	if err := s.putWireBuffer(payload, req, c); err != nil {
		c.abandon(reqID, fut)
		buffer.Put(payload)
		return nil, err
	}
	if err := c.send(payload); err != nil {
		c.abandon(reqID, fut)
		return nil, commErr("send to %s: %v", desc.Addr, err)
	}
	wait := s.cfg.CallTimeout
	deadlineBounded := false
	if rem, ok := info.Remaining(); ok && rem < wait {
		wait = rem
		deadlineBounded = true
	}
	var cancel <-chan struct{}
	if info != nil {
		cancel = info.Cancel
	}
	timer := fut.armTimer(wait)
	select {
	case <-fut.ready:
		timer.Stop()
		return s.settleReply(fut, desc)
	case <-cancel:
		timer.Stop()
		c.abandon(reqID, fut)
		return nil, fmt.Errorf("netd: call to %s: %w", desc.Addr, kernel.ErrCancelled)
	case <-timer.C:
		c.abandon(reqID, fut)
		if deadlineBounded {
			return nil, fmt.Errorf("netd: call to %s: %w", desc.Addr, kernel.ErrDeadlineExceeded)
		}
		return nil, commErr("call to %s timed out after %v", desc.Addr, s.cfg.CallTimeout)
	}
}

// parseReply decodes a reply frame positioned after its request id. A
// successful reply becomes the result buffer in place (see getWireBuffer)
// and is the caller's to Put; every other outcome recycles the frame here.
func (s *Server) parseReply(reply *buffer.Buffer, desc descriptor) (*buffer.Buffer, error) {
	if err := s.decodeReply(reply, desc); err != nil {
		kernel.ReleaseBufferDoors(reply)
		buffer.Put(reply)
		return nil, err
	}
	return reply, nil
}

// decodeReply reads the reply code and either reconstitutes the result in
// reply (nil) or returns the error class the code stands for.
func (s *Server) decodeReply(reply *buffer.Buffer, desc descriptor) error {
	code, err := reply.ReadByte()
	if err != nil {
		return commErr("truncated reply from %s", desc.Addr)
	}
	switch code {
	case codeOK:
		return s.getWireBuffer(reply)
	case codeRevoked:
		return fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrRevoked)
	case codeBadKey:
		return fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrBadHandle)
	case codeDeadline:
		return fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrDeadlineExceeded)
	case codeCancelled:
		return fmt.Errorf("netd: remote door %s/%d: %w", desc.Addr, desc.Key, kernel.ErrCancelled)
	case codeOverload:
		return fmt.Errorf("netd: remote door %s/%d shed at admission: %w", desc.Addr, desc.Key, kernel.ErrOverload)
	default:
		msg, _ := reply.ReadString()
		return fmt.Errorf("netd: remote call failed: %s", msg)
	}
}

// dialAndHello dials addr (bounded by DialTimeout), starts the read
// loop, and completes the session handshake: our hello goes out first,
// and the connection is not usable until the peer's hello arrives.
func (s *Server) dialAndHello(addr string) (*conn, error) {
	netc, err := s.timedDial(addr)
	if err != nil {
		return nil, commErr("dial %s: %v", addr, err)
	}
	c, epoch, err := s.adopt(netc, addr)
	if err != nil {
		return nil, err
	}
	if err := s.sendHello(c, epoch); err != nil {
		c.fail(commErr("hello to %s: %v", addr, err))
		return nil, commErr("hello to %s: %v", addr, err)
	}
	select {
	case <-c.helloed:
		return c, nil
	case <-c.done:
		return nil, commErr("connection to %s lost during handshake", addr)
	case <-time.After(s.cfg.DialTimeout):
		c.fail(commErr("hello from %s timed out", addr))
		return nil, commErr("hello from %s timed out", addr)
	}
}

// timedDial bounds one dial attempt by DialTimeout regardless of the
// transport's own behavior.
func (s *Server) timedDial(addr string) (sock.Stream, error) {
	type result struct {
		c   sock.Stream
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := s.cfg.Transport.Dial(addr)
		ch <- result{c, err}
	}()
	select {
	case r := <-ch:
		return r.c, r.err
	case <-time.After(s.cfg.DialTimeout):
		go func() { // reap the eventual result
			if r := <-ch; r.c != nil {
				_ = r.c.Close()
			}
		}()
		return nil, fmt.Errorf("timeout after %v", s.cfg.DialTimeout)
	}
}

// ---------------------------------------------------------------------
// Server side: accepting and serving connections.

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		netc, err := s.ln.Accept()
		if err != nil {
			return
		}
		c, epoch, err := s.adopt(netc, "")
		if err != nil {
			return
		}
		go func() { _ = s.sendHello(c, epoch) }()
	}
}

// adopt makes netc a connection of the server's and starts its reader;
// addr is the pool key of a dialled one ("" for an accepted one). The
// reader joins s.wg under s.mu while the server is still open: shutdown
// sets closed under the same lock before it Waits, so a connection that
// lands after Close never Adds to a WaitGroup whose Wait may already have
// returned.
func (s *Server) adopt(netc sock.Stream, addr string) (*conn, uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = netc.Close()
		return nil, 0, ErrClosed
	}
	c := newConn(netc)
	s.allConns[c] = struct{}{}
	epoch := s.proto.connEpoch()
	s.wg.Add(1)
	s.mu.Unlock()
	gConns.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveConn(c, addr)
	}()
	return c, epoch, nil
}

// serveConn demultiplexes one connection: replies complete pending
// requests; hellos bind the session; pings are answered; calls, releases
// and root requests are served (only after the session handshake — a
// peer that skips it is violating the protocol and is cut off). addr is
// the pool key for dialled connections ("" for accepted ones).
func (s *Server) serveConn(c *conn, addr string) {
	// Buffered reads are the receive half of the write coalescing: a
	// peer's flush arrives as one TCP segment train, and the buffered
	// reader drains many frames per read syscall instead of paying two
	// (header, payload) each.
	br := bufio.NewReaderSize(c, 64<<10)
	// budget is the inline fast path's allowance for the current read
	// batch: handler time spent executing calls directly on this
	// goroutine. It refills whenever the buffered reader runs dry —
	// i.e. when the next read would block, so the frames behind us are
	// not waiting on the handler in front of them.
	budget := s.cfg.Dispatch.InlineBudget
	var rel []releasePair // reused across batches by the release coalescer
	for {
		if br.Buffered() == 0 {
			budget = s.cfg.Dispatch.InlineBudget
			// What this goroutine queued while serving the batch — inline
			// handlers' replies, pongs, refusals — leaves now, in one
			// write: frames that arrived together are answered together.
			c.flush()
		}
		in, err := readFrame(br)
		if err != nil {
			break
		}
		if !s.serveFrame(c, br, in, &rel, &budget) {
			break
		}
	}
	s.connClosed(c, addr)
}

// serveFrame handles one frame for serveConn, reporting whether the
// connection should keep being served. in is the pooled buffer readFrame
// filled, and it is the only storage the frame ever has: a reply hands it
// to the waiting caller, a call turns it into the request buffer that
// runCall recycles when the handler is done — inline or queued alike —
// and every other path recycles it here.
func (s *Server) serveFrame(c *conn, br *bufio.Reader, in *buffer.Buffer, rel *[]releasePair, budget *time.Duration) bool {
	msg, err := in.ReadByte() // 0, matching no case, on an empty frame
	ok := err == nil
	if (msg == msgCall || msg == msgRelease || msg == msgRoot) && !c.hasSession() {
		msg, ok = 0, false // a peer that skips the handshake is cut off
	}
	switch msg {
	case msgHello:
		instance, epoch, listenAddr, err := getHello(in)
		if err != nil {
			ok = false
			break
		}
		s.handleHello(c, instance, epoch, listenAddr)
	case msgPing:
		pong := buffer.Get(1)
		pong.WriteByte(msgPong)
		_ = c.queue(pong)
	case msgPong:
		// The read that brought it stamped lastRecv: all a pong is for.
	case msgReply:
		reqID, err := in.ReadUint64()
		if err != nil {
			break
		}
		if c.deliver(reqID, in) {
			return true // the frame now belongs to the waiting caller
		}
		// The caller abandoned the reply (timeout, cancel).
	case msgCall:
		reqID, err1 := in.ReadUint64()
		key, err2 := in.ReadUint64()
		if err1 != nil || err2 != nil {
			break
		}
		info, err := getInfoHeader(in)
		if err == nil {
			err = s.getWireBuffer(in)
		}
		if err != nil {
			kernel.ReleaseBufferDoors(in)
			s.reply(c, reqID, codeError, nil, err.Error())
			break
		}
		s.dispatchCall(c, reqID, key, in, info, budget)
		return true // the frame is the request now; runCall recycles it
	case msgRelease:
		key, err1 := in.ReadUint64()
		count, err2 := in.ReadUvarint()
		if err1 != nil || err2 != nil {
			break
		}
		// A release burst (a dropped proxy tree, a cache eviction
		// sweep) arrives as consecutive frames in one flush; peel
		// the whole run off the buffered reader and apply it in a
		// single locked pass instead of paying s.mu per frame.
		*rel = append((*rel)[:0], releasePair{key: key, count: int64(count)})
		*rel = coalesceReleases(br, *rel)
		s.mu.Lock()
		for _, r := range *rel {
			s.proto.drop(r.key, c.sess, int(r.count))
		}
		s.settle()
	case msgRoot:
		reqID, err := in.ReadUint64()
		if err != nil {
			break
		}
		name, err := in.ReadString()
		if err != nil {
			break
		}
		s.handleRoot(c, reqID, name)
	}
	buffer.Put(in)
	return ok
}

// dispatchCall decides where one incoming call runs (E20, E25): admission
// first (server-wide and per-peer in-flight bounds — past either, the call
// is shed immediately with a retryable overload reply instead of queueing
// to death), then the inline fast path (a door whose adaptive state proves
// it non-blocking executes right here on the reader goroutine, spending the
// batch's inline budget), and otherwise a goroutine of its own, so a handler
// that blocks — on a group commit, on another server — holds nothing the
// next call needs, and as many callers can be blocked in the server at once
// as admission lets in. budget points at the reader's remaining per-batch
// inline allowance.
func (s *Server) dispatchCall(c *conn, reqID, key uint64, req *buffer.Buffer, info *kernel.Info, budget *time.Duration) {
	if !s.admitServe(c) {
		s.shed(c, reqID, req)
		return
	}
	s.mu.Lock()
	e, ok := s.proto.exports[key]
	s.mu.Unlock()
	if !ok {
		s.doneServe(c)
		kernel.ReleaseBufferDoors(req)
		buffer.Put(req)
		s.reply(c, reqID, codeBadKey, nil, "")
		return
	}
	h, ist := e.h, e.inline
	if *budget > 0 && ist.Eligible() {
		start := time.Now()
		frame := s.runCall(c, reqID, h, req, info)
		d := time.Since(start)
		*budget -= d
		ist.Observe(d, s.cfg.Dispatch.InlineThreshold)
		dispatch.NoteInline()
		_ = c.queue(frame)
		s.doneServe(c)
		return
	}
	large := req.Large()
	t := getServeTask()
	*t = serveTask{s: s, c: c, reqID: reqID, h: h, ist: ist, req: req, info: info,
		wait: trace.Begin(info, spanDispatchWait), queued: dispatch.NoteQueued(), fn: t.fn}
	go t.fn()
	if large {
		// The hand-off (DESIGN §11): a payload-sized request gets the
		// processor it was read on, and gives its array back before this
		// goroutine draws the next frame's; reading on, a burst of N holds
		// N arrays while the handlers wait for a CPU. A handler that blocks
		// parks, and the reader is back at once.
		runtime.Gosched()
	}
}

// serveTask is one admitted call on its way to a goroutine of its own. The
// structs are pooled and each carries its run method bound once (fn), so
// starting a call allocates nothing — no closure per call.
type serveTask struct {
	s      *Server
	c      *conn
	reqID  uint64
	h      kernel.Handle
	ist    *dispatch.InlineState
	req    *buffer.Buffer
	info   *kernel.Info
	wait   trace.Span
	queued int64  // dispatch.NoteQueued's stamp, for the queue-delay histogram
	fn     func() // t.run, bound at construction and kept across pool cycles
}

var serveTaskPool sync.Pool

func getServeTask() *serveTask {
	if t, ok := serveTaskPool.Get().(*serveTask); ok {
		return t
	}
	t := &serveTask{}
	t.fn = t.run
	return t
}

// run executes the call on the goroutine started for it.
func (t *serveTask) run() {
	s, c, reqID, h, ist, req, info := t.s, t.c, t.reqID, t.h, t.ist, t.req, t.info
	dispatch.NoteStarted(t.queued)
	t.wait.End(info, nil)
	*t = serveTask{fn: t.fn} // drop everything it referenced
	serveTaskPool.Put(t)
	start := time.Now()
	frame := s.runCall(c, reqID, h, req, info)
	ist.Observe(time.Since(start), s.cfg.Dispatch.InlineThreshold)
	_ = c.send(frame)
	s.doneServe(c)
}

// admitServe claims one admission slot for a call from c, enforcing the
// server-wide and per-peer in-flight bounds. Every admitted call must be
// matched by doneServe.
func (s *Server) admitServe(c *conn) bool {
	if max := int64(s.cfg.Dispatch.MaxInflight); max > 0 && s.inflight.Add(1) > max {
		s.inflight.Add(-1)
		return false
	} else if max <= 0 {
		s.inflight.Add(1)
	}
	if max := int64(s.cfg.Dispatch.MaxPerPeer); max > 0 && c.inflight.Add(1) > max {
		c.inflight.Add(-1)
		s.inflight.Add(-1)
		return false
	} else if max <= 0 {
		c.inflight.Add(1)
	}
	gServeInflight.Add(1)
	return true
}

// doneServe releases the admission slot admitServe claimed.
func (s *Server) doneServe(c *conn) {
	c.inflight.Add(-1)
	s.inflight.Add(-1)
	gServeInflight.Add(-1)
}

// shed refuses a call at admission: release what the request carried and
// answer with the retryable overload code — O(1) work on the reader, no
// goroutine started.
func (s *Server) shed(c *conn, reqID uint64, req *buffer.Buffer) {
	dispatch.NoteShed()
	kernel.ReleaseBufferDoors(req)
	buffer.Put(req)
	s.reply(c, reqID, codeOverload, nil, "")
}

// runCall executes an incoming forwarded door call under the context
// reconstructed from the wire header, so the exported door sees the
// caller's remaining budget and trace exactly as a local caller's would
// look, and returns the reply frame. (The caller-side cancellation channel
// cannot cross the wire; a cancelled caller simply abandons the reply.) It
// runs wherever the dispatch decision put it: the reader goroutine
// (inline), which queues the frame for its next flush, or a goroutine of
// the call's own, which sends it.
func (s *Server) runCall(c *conn, reqID uint64, h kernel.Handle, req *buffer.Buffer, info *kernel.Info) *buffer.Buffer {
	start := serveStats.Begin()
	sp := trace.Begin(info, spanServe)
	out, err := s.dom.CallInfo(h, req, info)
	sp.End(info, err)
	serveStats.EndCall(start, scstats.OpNone, info.ExemplarTrace(), err)
	trace.Event(info, spanReply)
	if err != nil {
		if out != req {
			buffer.Put(out) // a result is dead with its error
		}
		out = nil
	}
	code, msg := byte(codeOK), ""
	switch {
	case err == nil:
	case errors.Is(err, kernel.ErrDeadlineExceeded):
		code = codeDeadline
	case errors.Is(err, kernel.ErrCancelled):
		code = codeCancelled
	case errors.Is(err, kernel.ErrRevoked):
		code = codeRevoked
	case errors.Is(err, kernel.ErrBadHandle):
		code = codeBadKey
	default:
		code, msg = codeError, err.Error()
	}
	frame := s.replyFrame(c, reqID, code, out, msg)
	// The request is dead: the dispatch is over (a skeleton that kept
	// argument bytes copied them — see stubs.Skeleton). Putting it — before
	// the reply's write, not after — returns the request frame's storage to
	// the pool; leftover door references are released first, as an
	// abandoning client would. A request answered with itself was the
	// result, and replyFrame has put it.
	if out != req {
		kernel.ReleaseBufferDoors(req)
		buffer.Put(req)
	}
	return frame
}

// releasePair is one decoded release frame, for the coalescer.
type releasePair struct {
	key   uint64
	count int64
}

// coalesceReleases peels consecutive msgRelease frames off the buffered
// reader without blocking: as long as a complete, well-formed release
// frame is sitting in the buffer it is decoded and consumed, so a burst
// of releases (one flush from the peer) collapses into a single pass
// under the server lock. A frame that is incomplete, not a release, or
// malformed is left untouched for the main loop.
func coalesceReleases(br *bufio.Reader, rel []releasePair) []releasePair {
	for {
		buffered := br.Buffered()
		if buffered < 5 {
			return rel // not even a header + type byte without blocking
		}
		hdr, err := br.Peek(5)
		if err != nil || hdr[4] != msgRelease {
			return rel
		}
		n := int(binary.LittleEndian.Uint32(hdr[:4]))
		if n < 1+8+1 || 4+n > buffered {
			return rel // runt release or payload not fully buffered
		}
		frame, err := br.Peek(4 + n)
		if err != nil {
			return rel
		}
		body := frame[5 : 4+n] // after the type byte
		key := binary.LittleEndian.Uint64(body[:8])
		count, sz := binary.Uvarint(body[8:])
		if sz <= 0 || 8+sz != len(body) {
			return rel // malformed; let the main loop's decoder reject it
		}
		_, _ = br.Discard(4 + n)
		rel = append(rel, releasePair{key: key, count: int64(count)})
	}
}

// replyHeaderLen is what comes before a result in its reply frame:
// [msgReply u8] [reqID u64] [code u8] [nbytes u32]. Behind the result come
// the door count and, per door, a descriptor: descriptorRoom holds one
// whose address is up to 54 bytes long.
const (
	replyHeaderLen = 1 + 8 + 1 + 4
	descriptorRoom = 64
)

// reply answers reqID from the reader goroutine — a refusal, a root, a
// frame that would not parse: the frame is queued and leaves at the
// reader's next flush (serveConn).
func (s *Server) reply(c *conn, reqID uint64, code byte, out *buffer.Buffer, errMsg string) {
	_ = c.queue(s.replyFrame(c, reqID, code, out, errMsg))
}

// replyFrame builds the reply frame for reqID and disposes of out, the
// result of a codeOK reply (nil otherwise).
func (s *Server) replyFrame(c *conn, reqID uint64, code byte, out *buffer.Buffer, errMsg string) *buffer.Buffer {
	if code == codeOK {
		frame, err := s.frameResult(c, reqID, out)
		if err == nil {
			return frame
		}
		code, errMsg = codeError, err.Error() // the doors are already gone
	}
	frame := replyHeader(buffer.Get(16+len(errMsg)), reqID, code) // holds the header and the message
	if code == codeError {
		frame.WriteString(errMsg)
	}
	return frame
}

func replyHeader(b *buffer.Buffer, reqID uint64, code byte) *buffer.Buffer {
	b.WriteByte(msgReply)
	b.WriteUint64(reqID)
	b.WriteByte(code)
	return b
}

// frameResult makes the result out its own reply frame: the header goes
// into the headroom in front of the marshalled bytes and the door
// descriptors behind them, so the buffer the skeleton filled is the one the
// writer sends from — nothing is drawn and no payload byte moves. One kind
// of result is framed by copy, as all used to be: one with no headroom to
// prepend into — a request buffer answered with itself, an application
// door's own buffer, a reply a small append has regrown — or no room behind
// it for the descriptors, which appending them would move whole. An error
// is a door that could not be exported; out is disposed of either way.
func (s *Server) frameResult(c *conn, reqID uint64, out *buffer.Buffer) (*buffer.Buffer, error) {
	n := out.Size()
	frame := out
	var err error
	if hdr := out.Prepend(replyHeaderLen, 1+descriptorRoom*out.DoorCount()); hdr != nil {
		hdr[0], hdr[9] = msgReply, codeOK
		binary.LittleEndian.PutUint64(hdr[1:], reqID)
		binary.LittleEndian.PutUint32(hdr[10:], uint32(n))
		err = s.putDoors(out, out, c)
	} else {
		frame = replyHeader(buffer.Get(32), reqID, codeOK) // grows to the payload
		err = s.putWireBuffer(frame, out, c)
		buffer.Put(out)
	}
	if err != nil {
		buffer.Put(frame)
		return nil, err
	}
	return frame, nil
}

// ---------------------------------------------------------------------
// Bootstrap roots.

// PublishRoot publishes obj under name: remote machines can fetch a copy
// with ImportRootObject to obtain their first object on this machine. The
// object is retained (copies are marshalled per request, through its
// subcontract).
func (s *Server) PublishRoot(name string, obj *core.Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roots[name] = obj
}

func (s *Server) handleRoot(c *conn, reqID uint64, name string) {
	s.mu.Lock()
	obj, ok := s.roots[name]
	s.mu.Unlock()
	if !ok {
		s.reply(c, reqID, codeError, nil, ErrNoRoot.Error()+": "+name)
		return
	}
	tmp := buffer.Get(64)
	if err := obj.MarshalCopy(tmp); err != nil {
		buffer.Put(tmp)
		s.reply(c, reqID, codeError, nil, err.Error())
		return
	}
	if s.cfg.StateFile != "" {
		// Durable servers label root-marshalled doors before the reply
		// exports them, so a restart can rebind their keys (RootRebinder).
		s.mu.Lock()
		for i, d := range tmp.Doors() {
			if ref, ok := d.(kernel.Ref); ok && ref.Valid() {
				s.proto.label(ref.DoorID(), fmt.Sprintf("root:%s/%d", name, i))
			}
		}
		s.settle()
	}
	s.reply(c, reqID, codeOK, tmp, "")
}

// ImportRootObject fetches the named root object from the server at addr
// and unmarshals it into env (which must belong to this server's kernel).
func (s *Server) ImportRootObject(env *core.Env, addr, name string, expected *core.MTable) (*core.Object, error) {
	c, err := s.getConn(addr, roleCall)
	if err != nil {
		return nil, err
	}
	payload := buffer.Get(32)
	payload.WriteByte(msgRoot)
	reqID, fut := c.register()
	payload.WriteUint64(reqID)
	payload.WriteString(name)
	if err := c.send(payload); err != nil {
		c.abandon(reqID, fut)
		return nil, commErr("send to %s: %v", addr, err)
	}
	timer := fut.armTimer(s.cfg.CallTimeout)
	select {
	case <-fut.ready:
		timer.Stop()
		buf, err := s.settleReply(fut, descriptor{Addr: addr})
		if err != nil {
			return nil, err
		}
		obj, err := core.Unmarshal(env, expected, buf)
		kernel.ReleaseBufferDoors(buf)
		buffer.Put(buf)
		return obj, err
	case <-timer.C:
		c.abandon(reqID, fut)
		return nil, commErr("root fetch from %s timed out", addr)
	}
}
