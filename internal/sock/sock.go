// Package sock is the socket layer under the network door servers and the
// telemetry plane: TCP and unix stream sockets made straight from syscall,
// so nothing that links it links package net, its resolver's cgo, or libc
// (DESIGN §9). Each descriptor is wrapped by os.NewFile: reads, writes,
// deadlines and a Close that wakes a blocked call are the runtime poller's.
//
// An address is "unix:/path", or host:port where the host is an IP literal
// (an IPv6 one in brackets), "localhost", or empty for every interface.
package sock

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Stream is a connected byte stream. A net.Conn is one too.
type Stream interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener accepts Streams. Addr is the bound address in the form peers
// dial: "unix:/path", or host:port with the port the kernel picked for 0.
type Listener interface {
	Accept() (Stream, error)
	Close() error
	Addr() string
}

// ErrHostName is the error for an address whose host is a name.
var ErrHostName = errors.New("host names are not resolved: give an IP literal or localhost")

// An addr is a decoded address: a unix socket path, or a TCP endpoint
// whose zero ip means every interface.
type addr struct {
	path string
	ip   netip.Addr
	port uint16
}

// parseAddr decodes an address. Peers advertise theirs in hellos and door
// descriptors, so this is a decoder of bytes off the socket: it makes no
// syscall and resolves nothing (FuzzAddr). An IPv4-mapped IPv6 literal is
// its IPv4 address, as in net.
func parseAddr(s string) (addr, error) {
	bad := func(why string) (addr, error) { return addr{}, fmt.Errorf("sock: %q: %s", s, why) }
	if path, ok := strings.CutPrefix(s, "unix:"); ok {
		if path == "" {
			return bad("empty socket path")
		}
		return addr{path: path}, nil
	}
	i := strings.LastIndexByte(s, ':')
	port, err := strconv.ParseUint(s[i+1:], 10, 16)
	if i < 0 || err != nil {
		return bad("missing or bad port")
	}
	a, host := addr{port: uint16(port)}, s[:i]
	if host == "" {
		return a, nil
	} else if host == "localhost" {
		host = "127.0.0.1"
	}
	bracketed := len(host) > 1 && host[0] == '[' && host[len(host)-1] == ']'
	ip, err := netip.ParseAddr(strings.TrimSuffix(strings.TrimPrefix(host, "["), "]"))
	switch {
	case err != nil && !strings.ContainsAny(host, ":[]%"):
		return addr{}, fmt.Errorf("sock: %q: %w", s, ErrHostName)
	case err != nil || ip.Zone() != "" || bracketed == ip.Is4():
		return bad("not an IP literal: IPv6 goes in brackets, IPv4 not, neither with a zone")
	}
	a.ip = ip.Unmap()
	return a, nil
}

// String renders a as parseAddr reads it.
func (a addr) String() string {
	switch {
	case a.path != "":
		return "unix:" + a.path
	case !a.ip.IsValid():
		return ":" + strconv.Itoa(int(a.port))
	}
	return netip.AddrPortFrom(a.ip, a.port).String()
}

// open makes a nonblocking stream socket for a, with the options net sets
// on a listener: SO_REUSEADDR on TCP, both address families on IPv6 (a zero
// ip is IPv6's). It returns a's sockaddr.
func open(a addr, listener bool) (int, syscall.Sockaddr, error) {
	family, sa := syscall.AF_INET6, syscall.Sockaddr(&syscall.SockaddrInet6{Port: int(a.port), Addr: a.ip.As16()})
	switch {
	case a.path != "":
		family, sa = syscall.AF_UNIX, &syscall.SockaddrUnix{Name: a.path}
	case a.ip.Is4():
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: int(a.port), Addr: a.ip.As4()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, nil, os.NewSyscallError("socket", err)
	}
	if listener && family != syscall.AF_UNIX {
		err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	}
	if err == nil && family == syscall.AF_INET6 {
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, nil, os.NewSyscallError("setsockopt", err)
	}
	return fd, sa, nil
}

// Listen opens a listener on address. An empty host listens on every
// interface: dual-stack [::], or 0.0.0.0 where IPv6 is not to be had.
func Listen(address string) (Listener, error) {
	a, err := parseAddr(address)
	switch {
	case err != nil:
		return nil, err
	case a.path != "" || a.ip.IsValid():
		return listen(a)
	}
	a.ip = netip.IPv6Unspecified()
	if ln, err := listen(a); err == nil {
		return ln, nil
	}
	a.ip = netip.IPv4Unspecified()
	return listen(a)
}

// backlog is the kernel's to cap, at net.core.somaxconn: the figure net reads.
const backlog = 1<<16 - 1

func listen(a addr) (Listener, error) {
	fd, sa, err := open(a, true)
	if err != nil {
		return nil, err
	}
	if err = syscall.Bind(fd, sa); err != nil {
		err = os.NewSyscallError("bind", err)
	} else if err = syscall.Listen(fd, backlog); err != nil {
		err = os.NewSyscallError("listen", err)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	switch sa, _ := syscall.Getsockname(fd); sa := sa.(type) { // the port picked for 0
	case *syscall.SockaddrInet4:
		a.port = uint16(sa.Port)
	case *syscall.SockaddrInet6:
		a.port = uint16(sa.Port)
	}
	return &listener{f: os.NewFile(uintptr(fd), a.String()), path: a.path, unlink: true}, nil
}

// listener is a listening socket. A unix one removes its socket file on
// Close unless told otherwise, as net's does.
type listener struct {
	f      *os.File
	path   string // a unix socket's; "" for TCP
	unlink bool
	once   sync.Once
}

// Accept waits for a connection; Close ends the wait with an error.
func (l *listener) Accept() (Stream, error) {
	raw, err := l.f.SyscallConn() // fails only on a nil file
	var fd int
	if rerr := raw.Read(func(s uintptr) bool {
		for {
			fd, _, err = syscall.Accept4(int(s), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			if err != syscall.EINTR && err != syscall.ECONNABORTED {
				return err != syscall.EAGAIN
			}
		}
	}); rerr != nil {
		return nil, &os.PathError{Op: "accept", Path: l.f.Name(), Err: rerr}
	}
	if err != nil {
		return nil, os.NewSyscallError("accept", err)
	}
	return newConn(fd, l.f.Name(), l.path == ""), nil
}

// Addr implements Listener.
func (l *listener) Addr() string { return l.f.Name() }

// Close closes the socket, and removes a unix one's file first.
func (l *listener) Close() error {
	l.once.Do(func() {
		if l.unlink && l.path != "" && l.path[0] != '@' { // '@': an abstract socket has no file
			_ = syscall.Unlink(l.path) // gone already is what was wanted
		}
	})
	return l.f.Close()
}

// SetUnlinkOnClose says whether Close removes a unix listener's socket
// file: netd's Kill leaves it behind, as SIGKILL does.
func (l *listener) SetUnlinkOnClose(on bool) { l.unlink = on }

// Dial connects to address. An empty host is the local system, as in net.
func Dial(address string) (Stream, error) {
	a, err := parseAddr(address)
	if err != nil {
		return nil, err
	}
	if a.path == "" && !a.ip.IsValid() {
		a.ip = netip.IPv4Unspecified()
	}
	fd, sa, err := open(a, false)
	if err != nil {
		return nil, err
	}
	if err = syscall.Connect(fd, sa); err != nil && err != syscall.EINPROGRESS && err != syscall.EINTR {
		syscall.Close(fd)
		return nil, os.NewSyscallError("connect", err)
	}
	// Done or in progress: the poller says when the socket is writable,
	// SO_ERROR how the connect ended, and a peer name that it did end (the
	// poller can wake spuriously).
	c := newConn(fd, address, a.path == "")
	var cerr error
	if err := c.raw.Write(func(s uintptr) bool {
		e, err := syscall.GetsockoptInt(int(s), syscall.SOL_SOCKET, syscall.SO_ERROR)
		if err == nil && e == 0 {
			_, err := syscall.Getpeername(int(s))
			return err == nil
		} else if err == nil {
			err = syscall.Errno(e)
		}
		cerr = os.NewSyscallError("connect", err)
		return true
	}); err != nil || cerr != nil {
		c.Close()
		return nil, cmp.Or(cerr, err)
	}
	return c, nil
}

// conn is a connected socket: an os.File for the poller, and what Writev
// needs to write a vector without allocating.
type conn struct {
	*os.File
	raw    syscall.RawConn
	writev func(fd uintptr) bool // c.doWritev, bound once

	wmu  sync.Mutex // the Writev in progress, for doWritev:
	v    *[][]byte
	n    int64
	err  error
	iovs []syscall.Iovec
}

// newConn wraps a connected socket; a TCP one gets TCP_NODELAY, as in net,
// which ignores a failure to set it too.
func newConn(fd int, name string, tcp bool) *conn {
	if tcp {
		_ = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	}
	f := os.NewFile(uintptr(fd), name)
	raw, _ := f.SyscallConn() // cannot fail on a file just made
	c := &conn{File: f, raw: raw}
	c.writev = c.doWritev
	return c
}

// maxIov is the most elements one writev takes (Linux's UIO_MAXIOV).
const maxIov = 1024

// Writev writes v to s and consumes it as it goes, as net.Buffers.WriteTo
// does: after an error — a write deadline, say — *v holds exactly what was
// not written. A Stream from this package gets a writev per maxIov
// elements; any other gets a Write per element.
func Writev(s Stream, v *[][]byte) (int64, error) {
	c, ok := s.(*conn)
	if !ok {
		var n int64
		for len(*v) > 0 {
			m, err := s.Write((*v)[0])
			n += int64(m)
			consume(v, int64(m))
			if err != nil {
				return n, err
			}
		}
		return n, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.v, c.n, c.err = v, 0, nil
	err := c.raw.Write(c.writev)
	if err == nil {
		err = c.err
	}
	c.v, c.err = nil, nil
	if err != nil {
		return c.n, &os.PathError{Op: "writev", Path: c.Name(), Err: err}
	}
	return c.n, nil
}

// doWritev is Writev's poller callback: it writes until the vector is
// empty (true), the socket is full (false: the poller waits and calls
// again) or the write fails (true, with c.err set).
func (c *conn) doWritev(fd uintptr) bool {
	for consume(c.v, 0); len(*c.v) > 0; {
		iovs := c.iovs[:0]
		for _, b := range *c.v {
			if len(b) > 0 && len(iovs) < maxIov {
				iovs = append(iovs, syscall.Iovec{Base: &b[0]})
				iovs[len(iovs)-1].SetLen(len(b))
			}
		}
		c.iovs = iovs
		m, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)))
		clear(iovs) // hold on to nobody's buffers
		switch {
		case e == syscall.EAGAIN:
			return false
		case e == syscall.EINTR:
		case e != 0:
			c.err = e
			return true
		case m == 0:
			c.err = io.ErrUnexpectedEOF
			return true
		default:
			c.n += int64(m)
			consume(c.v, int64(m))
		}
	}
	return true
}

// consume drops the first n bytes of v, and the empty elements they reach.
func consume(v *[][]byte, n int64) {
	for len(*v) > 0 {
		l := int64(len((*v)[0]))
		if l > n {
			(*v)[0] = (*v)[0][n:]
			return
		}
		n -= l
		(*v)[0] = nil
		*v = (*v)[1:]
	}
}
