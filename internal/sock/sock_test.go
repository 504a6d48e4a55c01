package sock

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/sctest"
)

func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }

// pair returns both ends of one connection to ln.
func pair(t *testing.T, ln Listener) (dialled, accepted Stream) {
	t.Helper()
	got := make(chan Stream, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	dialled, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialled.Close() })
	if accepted = <-got; accepted == nil {
		t.FailNow()
	}
	t.Cleanup(func() { accepted.Close() })
	return dialled, accepted
}

func listenT(t *testing.T, address string) Listener {
	t.Helper()
	ln, err := Listen(address)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// exchange sends a message each way over a and b.
func exchange(t *testing.T, a, b Stream) {
	t.Helper()
	for _, dir := range [][2]Stream{{a, b}, {b, a}} {
		if _, err := dir[0].Write([]byte("door")); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4)
		if _, err := io.ReadFull(dir[1], got); err != nil || string(got) != "door" {
			t.Fatalf("read %q, %v", got, err)
		}
	}
}

func TestTCP(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "[::1]"} {
		t.Run(host, func(t *testing.T) {
			ln, err := Listen(host + ":0")
			if err != nil && host == "[::1]" {
				t.Skipf("no IPv6 loopback: %v", err)
			} else if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			if rest, ok := strings.CutPrefix(ln.Addr(), host+":"); !ok || rest == "0" {
				t.Fatalf("listener on %s:0 advertises %q, want the picked port", host, ln.Addr())
			}
			c, s := pair(t, ln)
			exchange(t, c, s)
		})
	}
}

func TestEmptyHostListensEverywhere(t *testing.T) {
	ln := listenT(t, ":0")
	port := ln.Addr()[strings.LastIndexByte(ln.Addr(), ':')+1:]
	if a := ln.Addr(); a != "[::]:"+port && a != "0.0.0.0:"+port {
		t.Fatalf("empty-host listener advertises %q, want [::] or 0.0.0.0 with its port", a)
	}
	got := make(chan Stream, 1)
	go func() {
		c, _ := ln.Accept()
		got <- c
	}()
	c, err := Dial("127.0.0.1:" + port)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-got
	if s == nil {
		t.Fatal("accept failed")
	}
	defer s.Close()
	exchange(t, c, s)
}

func TestUnixListenerUnlinks(t *testing.T) {
	for _, keep := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "s.sock")
		ln, err := Listen("unix:" + path)
		if err != nil {
			t.Fatal(err)
		}
		if ln.Addr() != "unix:"+path {
			t.Fatalf("unix listener advertises %q", ln.Addr())
		}
		c, s := pair(t, ln)
		exchange(t, c, s)
		if keep {
			ln.(interface{ SetUnlinkOnClose(bool) }).SetUnlinkOnClose(false)
		}
		ln.Close()
		fi, err := os.Lstat(path)
		switch {
		case keep && (err != nil || fi.Mode()&os.ModeSocket == 0):
			t.Errorf("after SetUnlinkOnClose(false) and Close: %v, %v; want the socket file", fi, err)
		case !keep && !os.IsNotExist(err):
			t.Errorf("Close left %s behind (%v)", path, err)
		}
	}
}

func TestReadDeadline(t *testing.T) {
	c, _ := pair(t, listenT(t, "127.0.0.1:0"))
	_ = c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestWritevDeadlineLeavesRemainder(t *testing.T) {
	// A unix socket: its send buffer is fixed, so a peer that never reads
	// stops the write well short of 8 MiB.
	c, _ := pair(t, listenT(t, "unix:"+filepath.Join(t.TempDir(), "s.sock")))
	const total = 8 << 20
	v := [][]byte{make([]byte, 4), make([]byte, total/2-4), nil, make([]byte, total/2)}
	_ = c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	n, err := Writev(c, &v)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("writev to a peer that never reads = %d, %v; want os.ErrDeadlineExceeded", n, err)
	}
	left := 0
	for _, b := range v {
		left += len(b)
	}
	if n == 0 || n+int64(left) != total {
		t.Fatalf("wrote %d and left %d in the vector, want some written and %d together", n, left, total)
	}
}

func TestCloseEndsBlockedCalls(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := pair(t, ln)
	errs := make(chan error, 2)
	go func() {
		_, err := ln.Accept()
		errs <- err
	}()
	go func() {
		_, err := c.Read(make([]byte, 1))
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // let both block
	ln.Close()
	c.Close()
	for range 2 {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a blocked call returned no error after Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not end a blocked Accept or Read")
		}
	}
}

func TestDialAndListenErrors(t *testing.T) {
	// netd's staleSocket tells a dead socket file from a live one by these two.
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	if c, err := Dial(addr); !errors.Is(err, syscall.ECONNREFUSED) {
		if c != nil {
			c.Close()
		}
		t.Errorf("dial to a closed port = %v, want ECONNREFUSED", err)
	}
	path := "unix:" + filepath.Join(t.TempDir(), "s.sock")
	listenT(t, path)
	if l2, err := Listen(path); !errors.Is(err, syscall.EADDRINUSE) {
		if l2 != nil {
			l2.Close()
		}
		t.Errorf("second listen on a bound path = %v, want EADDRINUSE", err)
	}
}

func TestNoDelayBothEnds(t *testing.T) {
	dialled, accepted := pair(t, listenT(t, "127.0.0.1:0"))
	for _, s := range []Stream{dialled, accepted} {
		var v int
		var gerr error
		if err := s.(*conn).raw.Control(func(fd uintptr) {
			v, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
		}); err != nil || gerr != nil || v != 1 {
			t.Errorf("TCP_NODELAY = %d (%v, %v), want 1", v, err, gerr)
		}
	}
}

func TestHostNameFailsFirst(t *testing.T) {
	// The named error, and no syscall's: the address is refused before a
	// socket is made.
	var se *os.SyscallError
	if c, err := Dial("example.invalid:80"); !errors.Is(err, ErrHostName) || errors.As(err, &se) {
		if c != nil {
			c.Close()
		}
		t.Errorf("dial to a host name = %v, want ErrHostName", err)
	}
	if ln, err := Listen("springfsd.example:0"); !errors.Is(err, ErrHostName) || errors.As(err, &se) {
		if ln != nil {
			ln.Close()
		}
		t.Errorf("listen on a host name = %v, want ErrHostName", err)
	}
}

func TestWritevAllocs(t *testing.T) {
	c, peer := pair(t, listenT(t, "127.0.0.1:0"))
	go func() { // drain
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	hdr, body := make([]byte, 4), bytes.Repeat([]byte("x"), 1<<10)
	iov := make([][]byte, 2)
	var v [][]byte
	n := testing.AllocsPerRun(200, func() {
		iov[0], iov[1] = hdr, body
		v = iov
		if _, err := Writev(c, &v); err != nil || len(v) != 0 {
			t.Fatalf("writev: %v, %d elements left", err, len(v))
		}
	})
	if n > 0 {
		t.Fatalf("a two-element writev allocates %.1f objects, want 0", n)
	}
}

// FuzzAddr feeds the address decoder what a peer could advertise. It must
// not panic; a host that is a name fails with ErrHostName; every TCP form
// it accepts renders, as a listener's Addr renders it, to a string that
// decodes to the same address. It makes no syscall by construction: the
// decoder touches nothing but its argument.
func FuzzAddr(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		a, err := parseAddr(s)
		if i := strings.LastIndexByte(s, ':'); i >= 0 && isName(s[:i]) {
			if _, perr := strconv.ParseUint(s[i+1:], 10, 16); perr == nil && !errors.Is(err, ErrHostName) {
				t.Fatalf("%q: host name decoded as %+v, %v; want ErrHostName", s, a, err)
			}
		}
		if err != nil || a.path != "" {
			return
		}
		back, err := parseAddr(a.String())
		if err != nil || back != a {
			t.Fatalf("%q decodes to %+v, renders %q, which decodes to %+v, %v", s, a, a.String(), back, err)
		}
	})
}

// isName reports whether host reads as a DNS name: letters, digits, dots
// and hyphens with a letter among them (an IPv4 literal has none, an IPv6
// one has colons).
func isName(host string) bool {
	return host != "localhost" && strings.ContainsAny(host, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") &&
		strings.Trim(host, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-") == ""
}
