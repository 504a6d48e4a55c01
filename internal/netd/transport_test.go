package netd

import (
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/sock"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// Tests for the transport tier: address-scheme transports, the
// same-machine tier's unix sockets beside TCP under one server, teardown
// mid-call, and a restart on a killed server's socket path.

// newSameMachine starts a machine whose server listens on a unix domain
// socket. extra overlays fields on the transport config (Transport is
// always SameMachine).
func newSameMachine(t *testing.T, name string, extra Config, libs ...func(*core.Registry) error) *machine {
	t.Helper()
	extra.Transport = SameMachine()
	k := kernel.New(name)
	srv, err := Start(k.NewDomain(name+"-netd"), "unix:"+t.TempDir()+"/nd.sock", With(extra))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	env, err := sctest.NewEnv(k, name+"-app", append(libs, singleton.Register)...)
	if err != nil {
		t.Fatal(err)
	}
	return &machine{k: k, srv: srv, env: env}
}

// bigPayload is n bytes (the callers pass sizes comfortably above the
// default BulkThreshold) of content that would expose any aliasing or
// cross-delivery corruption.
func bigPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

func TestSameMachineServesUnixAndTCPPeers(t *testing.T) {
	// One SameMachine server, a host:port peer and a unix: peer at once: C,
	// plain TCP, calls A's door; A calls B's door over B's unix socket; the
	// traffic overlaps, payloads small and payload-sized, and both peers
	// are sessions in A's one table, each on a socket of its own kind.
	a := newMachineCfg(t, "A", Config{Transport: SameMachine()})
	b := newSameMachine(t, "B", Config{})
	c := newMachine(t, "C")
	if !strings.HasPrefix(b.srv.Addr(), "unix:") {
		t.Fatalf("unix listener advertises %q, want a unix: address", b.srv.Addr())
	}

	objA, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", objA)
	objB, _ := singleton.Export(b.env, stressEchoMT, echoSkel(), nil)
	b.srv.PublishRoot("echo", objB)
	fromC, err := c.srv.ImportRootObject(c.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	toB, err := a.srv.ImportRootObject(a.env, b.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, remote := range []*core.Object{fromC, toB} {
		go func() {
			for i := 0; i < 20; i++ {
				if err := echoBytes(remote, bigPayload(64<<10)); err != nil {
					errs <- err
					return
				}
				if err := echoBytes(remote, []byte("tiny")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	a.srv.mu.Lock()
	defer a.srv.mu.Unlock()
	unix := map[bool]bool{} // by the address each socket was made for
	for c := range a.srv.allConns {
		unix[c.peer != nil && strings.HasPrefix(c.peer.addr, "unix:")] = true
	}
	if len(a.srv.proto.sessions) != 2 || !unix[true] || !unix[false] {
		t.Fatalf("A holds %d sessions over unix %v, want 2, one unix and one tcp", len(a.srv.proto.sessions), unix)
	}
}

func TestTransportTeardownMidCallSurfacesCommFailure(t *testing.T) {
	a := newSameMachine(t, "A", Config{})
	b := newSameMachine(t, "B", Config{})

	// A server that hangs until the transport under the call is gone.
	entered := make(chan struct{})
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	hang := stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		close(entered)
		<-gate
		return nil
	})
	obj, _ := singleton.Export(a.env, stressEchoMT, hang, nil)
	a.srv.PublishRoot("hang", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "hang", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		errc <- stubs.Call(remote, 0, nil, nil)
	}()
	<-entered
	a.srv.Close() // tear the whole transport down under the in-flight call

	select {
	case err := <-errc:
		if !errors.Is(err, kernel.ErrCommFailure) {
			t.Fatalf("call across torn-down transport = %v, want kernel.ErrCommFailure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call hung after transport teardown")
	}
}

func TestAbandonRacedByDeliveryDrainsParkedReply(t *testing.T) {
	// The narrow race the read loop cannot see: deliver wins against the
	// caller's timeout, parking the reply on the future, and the abandon
	// then finds its entry gone. It must drain the parked reply back to
	// the pool — the ledger is what would show it leaked.
	c := newConn(newDiscardConn())
	defer c.fail(errConnDead)
	before := buffer.Stats()
	reply := buffer.Get(64)
	reply.WriteByte(codeOK)
	id, fut := c.register()
	if !c.deliver(id, reply) {
		t.Fatal("delivery should win the race")
	}
	c.abandon(id, fut) // the timed-out caller gives up
	if d := buffer.Stats().Sub(before); d.Gets != 1 || d.Puts != 1 || d.Drops != 0 {
		t.Fatalf("ledger after abandonment: %+v, want the parked reply put back", d)
	}
	if n := c.pending.Load(); n != 0 {
		t.Fatalf("%d calls pending after abandonment", n)
	}
}

func TestWithOverlaysNonZeroFields(t *testing.T) {
	// With(cfg) is an overlay, not a wholesale replacement: several
	// compose in either order, each replacing only the fields it sets.
	sm := SameMachine()
	var c Config
	With(Config{Transport: sm})(&c)
	With(Config{CallTimeout: time.Minute})(&c)
	if c.Transport != Transport(sm) {
		t.Fatalf("With dropped the earlier transport: %v", c.Transport)
	}
	if c.CallTimeout != time.Minute {
		t.Fatalf("CallTimeout = %v, want 1m", c.CallTimeout)
	}
	With(Config{BulkThreshold: 123})(&c)
	if c.CallTimeout != time.Minute || c.BulkThreshold != 123 {
		t.Fatalf("second overlay clobbered earlier fields: %+v", c)
	}
	// The dispatch settings overlay one by one like every other field.
	With(Config{MaxInflight: 8})(&c)
	With(Config{InlineThreshold: -1})(&c)
	if c.MaxInflight != 8 || c.InlineThreshold != -1 {
		t.Fatalf("MaxInflight = %d, InlineThreshold = %v after two overlays, want 8 and -1",
			c.MaxInflight, c.InlineThreshold)
	}
	if c = c.withDefaults(); c.MaxInflight != 8 {
		t.Fatalf("withDefaults reset MaxInflight to %d", c.MaxInflight)
	}
}

func TestSameMachineListenReplacesStaleSocket(t *testing.T) {
	// A killed server leaves its socket file behind, and the restart that
	// -state and -wal exist for must get the address back: nobody answers
	// a dial there, so the file is replaced. A path somebody does answer
	// on, and a file that is not a socket, fail the listen and stay.
	sm := SameMachine()
	dir := t.TempDir()

	stale := dir + "/stale.sock"
	old, err := sock.Listen("unix:" + stale)
	if err != nil {
		t.Fatal(err)
	}
	old.(interface{ SetUnlinkOnClose(bool) }).SetUnlinkOnClose(false)
	old.Close() // as SIGKILL leaves it: the file, and nobody behind it
	if _, err := sock.Listen("unix:" + stale); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("a bare listen on the stale path = %v, want EADDRINUSE", err)
	}
	ln, err := sm.Listen("unix:" + stale)
	if err != nil {
		t.Fatalf("listen on a stale socket: %v", err)
	}
	defer ln.Close()
	if c, err := sm.Dial("unix:" + stale); err != nil {
		t.Fatalf("dial after the replacement: %v", err)
	} else {
		c.Close()
	}

	if l2, err := sm.Listen("unix:" + stale); !errors.Is(err, syscall.EADDRINUSE) {
		if err == nil {
			l2.Close()
		}
		t.Fatalf("listen on a path with a live listener = %v, want EADDRINUSE", err)
	}
	if c, err := sm.Dial("unix:" + stale); err != nil {
		t.Fatalf("the live listener lost its socket to a second listen: %v", err)
	} else {
		c.Close()
	}

	file := dir + "/notes"
	if err := os.WriteFile(file, []byte("not a socket"), 0o600); err != nil {
		t.Fatal(err)
	}
	if l3, err := sm.Listen("unix:" + file); err == nil {
		l3.Close()
		t.Fatal("listen on a regular file's path succeeded")
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != "not a socket" {
		t.Fatalf("the regular file after the refused listen: %q, %v", got, err)
	}
}
