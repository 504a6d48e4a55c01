package netd

import (
	"errors"
	"net"
	"os"
	"strings"
	"syscall"
)

// This file is the transport layer under the network door servers. A
// Transport owns everything address-shaped: how to listen, how to dial,
// and what the address syntax means ("host:port", "unix:/path"). Above it
// every connection is the same frame stream, so a SameMachine server
// serves a unix: peer and a host:port peer at once with no configuration.

// Transport supplies a Server's listener and dialer. It owns address
// syntax end to end: the address given to Start, the addresses in
// descriptors, and the advertised listen address all pass through it
// verbatim.
type Transport interface {
	// Name labels the transport in diagnostics.
	Name() string
	// Listen opens the server's listener on addr.
	Listen(addr string) (net.Listener, error)
	// Dial opens a connection to a peer's advertised address.
	Dial(addr string) (net.Conn, error)
}

// canonicalAddr renders a listener's address in the transport-qualified
// form peers must dial: unix sockets advertise as "unix:/path" so the
// address survives descriptor travel and conn-cache keying without TCP
// assumptions.
func canonicalAddr(ln net.Listener) string {
	a := ln.Addr()
	if strings.HasPrefix(a.Network(), "unix") {
		return "unix:" + a.String()
	}
	return a.String()
}

// ---------------------------------------------------------------------
// Concrete transports.

// TCPTransport is the default tier: plain TCP.
type TCPTransport struct{}

// Name implements Transport.
func (TCPTransport) Name() string { return "tcp" }

// Listen implements Transport.
func (TCPTransport) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Transport.
func (TCPTransport) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// SameMachineTransport is the co-located tier: addresses of the form
// "unix:/path" run the control/frame path over a unix domain socket
// (plain "host:port" still uses TCP, so one server serves both kinds of
// peer).
type SameMachineTransport struct{}

// SameMachine returns the co-located transport tier. cmd/springfsd and
// cmd/fsh enable it with -same-machine.
func SameMachine() *SameMachineTransport { return &SameMachineTransport{} }

// Name implements Transport.
func (*SameMachineTransport) Name() string { return "same-machine" }

// Listen implements Transport. A unix socket file outlives a killed
// server, and the restart must get its address back: when the path is in
// use but nobody answers a dial there, the stale socket is removed and the
// listen retried. A live listener, or a file that is not a socket, still
// fails the listen and is left alone.
func (*SameMachineTransport) Listen(addr string) (net.Listener, error) {
	path, ok := strings.CutPrefix(addr, "unix:")
	if !ok {
		return net.Listen("tcp", addr)
	}
	ln, err := net.Listen("unix", path)
	if errors.Is(err, syscall.EADDRINUSE) && staleSocket(path) && os.Remove(path) == nil {
		return net.Listen("unix", path)
	}
	return ln, err
}

// staleSocket reports whether path is a socket file nobody listens on.
func staleSocket(path string) bool {
	if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeSocket == 0 {
		return false
	}
	c, err := net.Dial("unix", path)
	if err == nil {
		_ = c.Close()
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// Dial implements Transport.
func (*SameMachineTransport) Dial(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	return net.Dial("tcp", addr)
}

// FuncTransport adapts bare listen/dial funcs to the Transport
// interface; faultnet's wrappers and the test suites compose through it.
// Nil funcs fall through to Inner (nil Inner means TCP).
type FuncTransport struct {
	ListenFunc func(addr string) (net.Listener, error)
	DialFunc   func(addr string) (net.Conn, error)
	Inner      Transport
}

func (t FuncTransport) inner() Transport {
	if t.Inner != nil {
		return t.Inner
	}
	return TCPTransport{}
}

// Name implements Transport.
func (t FuncTransport) Name() string { return "func(" + t.inner().Name() + ")" }

// Listen implements Transport.
func (t FuncTransport) Listen(addr string) (net.Listener, error) {
	if t.ListenFunc != nil {
		return t.ListenFunc(addr)
	}
	return t.inner().Listen(addr)
}

// Dial implements Transport.
func (t FuncTransport) Dial(addr string) (net.Conn, error) {
	if t.DialFunc != nil {
		return t.DialFunc(addr)
	}
	return t.inner().Dial(addr)
}
