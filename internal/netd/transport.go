package netd

import (
	"errors"
	"os"
	"strings"
	"syscall"

	"repro/internal/sock"
)

// This file is the transport layer under the network door servers. A
// Transport owns everything address-shaped: how to listen, how to dial,
// and what the address syntax means ("host:port", "unix:/path"). Above it
// every connection is the same frame stream, so a SameMachine server
// serves a unix: peer and a host:port peer at once with no configuration.

// Transport supplies a Server's listener and dialer. It owns address
// syntax end to end: the address given to Start, the addresses in
// descriptors, and the advertised listen address (the listener's Addr)
// all pass through it verbatim.
type Transport interface {
	// Listen opens the server's listener on addr.
	Listen(addr string) (sock.Listener, error)
	// Dial opens a connection to a peer's advertised address.
	Dial(addr string) (sock.Stream, error)
}

// ---------------------------------------------------------------------
// Concrete transports.

// TCPTransport is the default tier: plain TCP. It refuses unix: addresses,
// which are the same-machine tier's.
type TCPTransport struct{}

var errUnixAddr = errors.New("unix: addresses need the same-machine transport")

// Listen implements Transport.
func (TCPTransport) Listen(addr string) (sock.Listener, error) {
	if strings.HasPrefix(addr, "unix:") {
		return nil, errUnixAddr
	}
	return sock.Listen(addr)
}

// Dial implements Transport.
func (TCPTransport) Dial(addr string) (sock.Stream, error) {
	if strings.HasPrefix(addr, "unix:") {
		return nil, errUnixAddr
	}
	return sock.Dial(addr)
}

// SameMachineTransport is the co-located tier: addresses of the form
// "unix:/path" run the control/frame path over a unix domain socket
// (plain "host:port" still uses TCP, so one server serves both kinds of
// peer).
type SameMachineTransport struct{}

// SameMachine returns the co-located transport tier. cmd/springfsd and
// cmd/fsh enable it with -same-machine.
func SameMachine() *SameMachineTransport { return &SameMachineTransport{} }

// Listen implements Transport. A unix socket file outlives a killed
// server, and the restart must get its address back: when the path is in
// use but nobody answers a dial there, the stale socket is removed and the
// listen retried. A live listener, or a file that is not a socket, still
// fails the listen and is left alone.
func (*SameMachineTransport) Listen(addr string) (sock.Listener, error) {
	ln, err := sock.Listen(addr)
	path, unix := strings.CutPrefix(addr, "unix:")
	if unix && errors.Is(err, syscall.EADDRINUSE) && staleSocket(path) && os.Remove(path) == nil {
		return sock.Listen(addr)
	}
	return ln, err
}

// staleSocket reports whether path is a socket file nobody listens on.
func staleSocket(path string) bool {
	if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeSocket == 0 {
		return false
	}
	c, err := sock.Dial("unix:" + path)
	if err == nil {
		_ = c.Close()
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// Dial implements Transport.
func (*SameMachineTransport) Dial(addr string) (sock.Stream, error) { return sock.Dial(addr) }

// FuncTransport adapts bare listen/dial funcs to the Transport
// interface; faultnet's wrappers and the test suites compose through it.
// A nil func falls through to TCPTransport.
type FuncTransport struct {
	ListenFunc func(addr string) (sock.Listener, error)
	DialFunc   func(addr string) (sock.Stream, error)
}

// Listen implements Transport.
func (t FuncTransport) Listen(addr string) (sock.Listener, error) {
	if t.ListenFunc != nil {
		return t.ListenFunc(addr)
	}
	return TCPTransport{}.Listen(addr)
}

// Dial implements Transport.
func (t FuncTransport) Dial(addr string) (sock.Stream, error) {
	if t.DialFunc != nil {
		return t.DialFunc(addr)
	}
	return TCPTransport{}.Dial(addr)
}
