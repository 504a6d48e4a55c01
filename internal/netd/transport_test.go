package netd

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// Tests for the transport tier redesign: per-address capability
// negotiation at hello, the same-machine unix+region tier, graceful
// fallback to TCP against a peer lacking a tier, and region reclamation
// when a transport is torn down mid-hand-off.

// newSameMachine starts a machine whose server listens on a unix domain
// socket and advertises the bulk-region tier. extra overlays fields on
// the transport config (Transport is always SameMachine).
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

// bigPayload is comfortably above the default BulkThreshold, with
// content that would expose any aliasing or cross-delivery corruption.
func bigPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

func TestSameMachineNegotiatesBulkHandoff(t *testing.T) {
	granted0, mapped0 := gBulkGranted.Value(), gBulkMapped.Value()
	live0 := sharedRing.live()

	a := newSameMachine(t, "A", Config{})
	b := newSameMachine(t, "B", Config{})
	if !strings.HasPrefix(a.srv.Addr(), "unix:") {
		t.Fatalf("unix listener advertises %q, want a unix: address", a.srv.Addr())
	}

	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	// A small call stays inline: the bulk tier must not tax it.
	if err := echoBytes(remote, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if d := gBulkGranted.Value() - granted0; d != 0 {
		t.Fatalf("small call granted %d bulk regions, want 0", d)
	}

	// A large call rides regions both ways: request and reply each cross
	// as one grant, mapped exactly once, leaving nothing in the ring.
	if err := echoBytes(remote, bigPayload(64<<10)); err != nil {
		t.Fatal(err)
	}
	granted, mapped := gBulkGranted.Value()-granted0, gBulkMapped.Value()-mapped0
	if granted != 2 || mapped != granted {
		t.Fatalf("64KiB echo: granted=%d mapped=%d, want granted=2 and mapped=granted", granted, mapped)
	}
	if live := sharedRing.live(); live != live0 {
		t.Fatalf("ring holds %d grants after delivered calls, want %d", live, live0)
	}
}

func TestMixedCapabilityPeersFallbackToTCP(t *testing.T) {
	granted0 := gBulkGranted.Value()

	// A advertises the bulk tier on a TCP address; B is plain TCP. The
	// hello intersection must come up empty and every payload — however
	// large — ride the frame stream.
	k := kernel.New("A")
	srv, err := Start(k.NewDomain("A-netd"), "127.0.0.1:0", WithTransport(SameMachine()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	envA, err := sctest.NewEnv(k, "A-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	a := &machine{k: k, srv: srv, env: envA}
	b := newMachine(t, "B")

	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	if err := echoBytes(remote, bigPayload(64<<10)); err != nil {
		t.Fatalf("large call against a TCP-only peer: %v", err)
	}
	if d := gBulkGranted.Value() - granted0; d != 0 {
		t.Fatalf("mixed-capability pair granted %d regions, want 0 (TCP fallback)", d)
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

func TestFaultnetKillDuringBulkHandoffReclaimsRegion(t *testing.T) {
	reclaimed0 := gBulkReclaimed.Value()
	live0 := sharedRing.live()

	// B dials through faultnet over the same-machine tier: the wrapped
	// funcs carry the faults, Inner keeps the capability set and mapper.
	fn := faultnet.New()
	sm := SameMachine()
	a := newSameMachine(t, "A", Config{})
	cfgB := Config{
		Transport:         FuncTransport{DialFunc: fn.Dialer(sm.Dial), Inner: sm},
		HeartbeatInterval: time.Minute, // no ping may steal the one-shot truncation
	}
	k := kernel.New("B")
	srv, err := Start(k.NewDomain("B-netd"), "unix:"+t.TempDir()+"/nd.sock", With(cfgB))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	envB, err := sctest.NewEnv(k, "B-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	b := &machine{k: k, srv: srv, env: envB}

	obj, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the bulk connection: the truncation must land on the hand-off's
	// frame, not on the hello of a first dial.
	if err := echoBytes(remote, bigPayload(64<<10)); err != nil {
		t.Fatal(err)
	}

	// Kill the connection in the middle of a bulk hand-off: the request's
	// region is granted to the ring, then the carrying frame is truncated
	// on the wire and the connection hard-closed. The peer never maps the
	// grant; connection teardown must reclaim it.
	fn.TruncateNextWrite()
	err = echoBytes(remote, bigPayload(64<<10))
	if !errors.Is(err, kernel.ErrCommFailure) {
		t.Fatalf("call over killed hand-off = %v, want kernel.ErrCommFailure", err)
	}
	waitFor(t, 5*time.Second, "stranded region reclaimed", func() bool {
		return gBulkReclaimed.Value() > reclaimed0 && sharedRing.live() == live0
	})

	// The tier must still work after the redial.
	if err := echoBytes(remote, bigPayload(64<<10)); err != nil {
		t.Fatalf("bulk call after recovery: %v", err)
	}
}

func TestAbandonedBulkReplyReclaimed(t *testing.T) {
	mapped0 := gBulkMapped.Value()
	live0 := sharedRing.live()

	a := newSameMachine(t, "A", Config{})
	b := newSameMachine(t, "B", Config{CallTimeout: 150 * time.Millisecond})

	// The server stalls until the caller has given up, then returns a
	// bulk-sized reply. No waiter remains to map the region: the receive
	// loop must redeem and release the orphan grant itself.
	gate := make(chan struct{})
	big := bigPayload(64 << 10)
	slow := stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		<-gate
		results.WriteBytes(big)
		return nil
	})
	obj, _ := singleton.Export(a.env, stressEchoMT, slow, nil)
	a.srv.PublishRoot("slow", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "slow", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	if err := stubs.Call(remote, 0, nil, nil); !errors.Is(err, kernel.ErrCommFailure) {
		t.Fatalf("stalled call = %v, want kernel.ErrCommFailure (timeout)", err)
	}
	close(gate) // now the abandoned bulk reply goes out

	waitFor(t, 5*time.Second, "orphan reply region released", func() bool {
		return gBulkMapped.Value() > mapped0 && sharedRing.live() == live0
	})
}

func TestBulkRequestGrantDoesNotAliasCallerArgs(t *testing.T) {
	// A forwarded request's arguments belong to the caller: a retrying
	// subcontract resends the same marshalled buffer and recycles it once
	// an attempt succeeds, possibly while an abandoned attempt's grant is
	// still unmapped (or being read by a slow server). The grant must
	// therefore carry its own copy — clobbering the caller's bytes after
	// putWireBuffer, as pool reuse would, may not corrupt what the
	// receiver maps.
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "unix:"+t.TempDir()+"/nd.sock", WithTransport(SameMachine()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := newConn(newDiscardConn())
	defer c.fail(errConnDead)
	c.caps.Store(uint32(CapBulkRegions))

	payload := bigPayload(64 << 10)
	src := buffer.New(len(payload))
	src.WriteRaw(payload)
	frame := buffer.New(64)
	if err := srv.putWireBuffer(frame, src, c, false); err != nil {
		t.Fatal(err)
	}
	for i, b := range src.Bytes() {
		src.Bytes()[i] = ^b // the pool hands the storage to another call
	}
	got := buffer.FromParts(frame.Bytes(), nil)
	if err := srv.getWireBuffer(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("request grant aliased the caller's argument buffer")
	}
}

func TestAbandonRacedByDeliveryDrainsParkedReply(t *testing.T) {
	// The narrow race the read loop cannot see: deliver wins against the
	// caller's timeout, parking the reply in the buffered channel, and
	// unregister then returns false. abandonCall must drain the parked
	// reply and release the bulk region it carries — otherwise the grant
	// sits in the ring until the whole connection dies.
	live0 := sharedRing.live()
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "unix:"+t.TempDir()+"/nd.sock", WithTransport(SameMachine()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := newConn(newDiscardConn())
	defer c.fail(errConnDead)
	c.caps.Store(uint32(CapBulkRegions))

	out := buffer.New(64 << 10)
	out.WriteRaw(bigPayload(64 << 10))
	frame := buffer.New(64)
	frame.WriteByte(codeOK)
	if err := srv.putWireBuffer(frame, out, c, false); err != nil {
		t.Fatal(err)
	}
	if sharedRing.live() != live0+1 {
		t.Fatalf("ring holds %d grants after the reply grant, want %d", sharedRing.live(), live0+1)
	}
	id, ch := c.register()
	reply := buffer.FromParts(frame.Bytes(), nil)
	if !c.deliver(id, reply) {
		t.Fatal("delivery should win the race")
	}
	srv.abandonCall(c, id, ch) // the timed-out caller gives up
	if sharedRing.live() != live0 {
		t.Fatalf("ring holds %d grants after abandonment, want %d (parked reply drained)", sharedRing.live(), live0)
	}
}

func TestBulkGrantReclaimedOnDoorExportError(t *testing.T) {
	// If flattening fails after the payload was granted (a door the
	// exporter refuses), the frame is never sent; the grant must be
	// pulled back out of the ring rather than stranded until conn death.
	live0 := sharedRing.live()
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "unix:"+t.TempDir()+"/nd.sock", WithTransport(SameMachine()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := newConn(newDiscardConn())
	defer c.fail(errConnDead)
	c.caps.Store(uint32(CapBulkRegions))

	src := buffer.FromParts(bigPayload(64<<10), []buffer.Door{"not a door"})
	frame := buffer.New(64)
	if err := srv.putWireBuffer(frame, src, c, false); err == nil {
		t.Fatal("exporting a bogus door slot should fail")
	}
	if sharedRing.live() != live0 {
		t.Fatalf("ring holds %d grants after a failed flatten, want %d", sharedRing.live(), live0)
	}
}

func TestWithOverlaysNonZeroFields(t *testing.T) {
	// With(cfg) is an overlay, not a wholesale replacement: it must
	// compose with the other options in either order, replacing only the
	// fields cfg sets.
	sm := SameMachine()
	var c Config
	WithTransport(sm)(&c)
	With(Config{CallTimeout: time.Minute})(&c)
	if c.Transport != Transport(sm) {
		t.Fatalf("With dropped the transport option: %v", c.Transport)
	}
	if c.CallTimeout != time.Minute {
		t.Fatalf("CallTimeout = %v, want 1m", c.CallTimeout)
	}
	With(Config{BulkThreshold: 123})(&c)
	if c.CallTimeout != time.Minute || c.BulkThreshold != 123 {
		t.Fatalf("second overlay clobbered earlier fields: %+v", c)
	}
}

func TestBulkWireBufferRoundTrip(t *testing.T) {
	// The wirebuf bulk form, without a network: a payload at the
	// threshold crosses via a grant the receiver maps and reads in place;
	// one byte under stays inline.
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "unix:"+t.TempDir()+"/nd.sock", WithTransport(SameMachine()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := newConn(newDiscardConn())
	defer c.fail(errConnDead)
	c.caps.Store(uint32(CapBulkRegions))

	for _, n := range []int{srv.cfg.BulkThreshold - 1, srv.cfg.BulkThreshold, 64 << 10} {
		payload := bigPayload(n)
		src := buffer.New(n)
		src.WriteRaw(payload)
		frame := buffer.New(64)
		if err := srv.putWireBuffer(frame, src, c, false); err != nil {
			t.Fatal(err)
		}
		wantBulk := n >= srv.cfg.BulkThreshold
		got := buffer.FromParts(frame.Bytes(), nil)
		if err := srv.getWireBuffer(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("payload of %d bytes corrupted across the wirebuf", n)
		}
		if isBulk := len(frame.Bytes()) < n; isBulk != wantBulk {
			t.Fatalf("payload of %d bytes: bulk=%v, want %v", n, isBulk, wantBulk)
		}
	}
}
