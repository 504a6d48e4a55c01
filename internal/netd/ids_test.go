package netd

import (
	"slices"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/kernel"
)

// The identifier mapping (ids.go) between two machines with nothing in
// between: two kernels, two protos and the real translation, frames as
// byte slices handed from one side to the other — no Server, no conn, no
// socket, and no sleep: every wait is on a channel.

// side is one machine: a kernel whose netd domain the mapping runs on, an
// application domain, and the other machine's session here.
type side struct {
	ids
	t    *testing.T
	app  *kernel.Domain
	peer *side
	them *session // the other machine's session: doors go to it, and come from it
	// releases receives the release actions this side's proxies ask for,
	// which the test delivers — or not — to the exporter.
	releases chan action
}

func newSide(t *testing.T, name string, instance uint64) *side {
	k := kernel.New(name)
	x := &side{t: t, app: k.NewDomain("app"), releases: make(chan action, 8)}
	x.ids = ids{dom: k.NewDomain("netd"), addr: name, proto: newProto(Config{}.withDefaults(), instance),
		proxies: make(map[uint64]*proxy)}
	x.end, x.body = x.settle, x.forward
	return x
}

// pair joins two sides: each says hello to the other.
func pair(t *testing.T) (a, b *side) {
	a, b = newSide(t, "A", 1), newSide(t, "B", 2)
	a.peer, b.peer = b, a
	for _, x := range []*side{a, b} {
		x.mu.Lock()
		x.them, _ = x.proto.hello(nil, nil, x.peer.proto.instance, 0, x.peer.addr)
		x.end()
	}
	return a, b
}

// settle ends an event as Server.settle does, minus the gauges: deletes
// run, releases go to the test.
func (x *side) settle() {
	acts := slices.Clone(x.proto.acts)
	x.proto.acts = x.proto.acts[:0]
	x.mu.Unlock()
	for _, a := range acts {
		switch a.kind {
		case actDelete:
			if err := x.dom.DeleteDoor(a.h); err != nil {
				x.t.Errorf("%s: delete %d: %v", x.addr, a.h, err)
			}
		case actRelease:
			x.releases <- a
		default:
			x.t.Errorf("%s: unexpected action %d", x.addr, a.kind)
		}
	}
}

// forward is a proxy's body: the request crosses to the exporter as a
// wirebuf, is served there, and the reply crosses back the same way.
func (x *side) forward(desc descriptor, _ *peerState, _ uint64, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	to := x.peer
	if desc.Addr != to.addr {
		x.t.Fatalf("%s: call for %s", x.addr, desc.Addr)
	}
	in := buffer.New(64)
	if err := x.putWireBuffer(in, req, x.them); err != nil {
		return nil, err
	}
	if err := to.getWireBuffer(in, to.them); err != nil {
		return nil, err
	}
	to.mu.Lock()
	e, ok := to.proto.exports[desc.Key]
	to.mu.Unlock()
	if !ok {
		return nil, kernel.ErrBadHandle
	}
	out, err := to.dom.CallInfo(e.h, in, info)
	kernel.ReleaseBufferDoors(in)
	if err != nil {
		return nil, err
	}
	back := buffer.New(64)
	if err := to.putWireBuffer(back, out, to.them); err != nil {
		return nil, err
	}
	if err := x.getWireBuffer(back, x.them); err != nil {
		return nil, err
	}
	return back, nil
}

// ship moves the door h names out of from's application domain, across
// to the other side as wirebuf bytes, and into its application domain.
func ship(t *testing.T, from *side, h kernel.Handle) kernel.Handle {
	t.Helper()
	buf := buffer.New(16)
	if err := from.app.MoveToBuffer(h, buf); err != nil {
		t.Fatal(err)
	}
	wire := buffer.New(64)
	if err := from.putWireBuffer(wire, buf, from.them); err != nil {
		t.Fatal(err)
	}
	to := from.peer
	if err := to.getWireBuffer(wire, to.them); err != nil {
		t.Fatal(err)
	}
	got, err := to.app.AdoptFromBuffer(wire)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// quiesce returns once every unreferenced notification x's kernel queued
// so far has run: the kernel delivers them in order, one at a time.
func (x *side) quiesce() {
	done := make(chan struct{})
	h, _ := x.app.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) { return nil, nil }, func() { close(done) })
	if err := x.app.DeleteDoor(h); err != nil {
		x.t.Fatal(err)
	}
	<-done
}

// valueDoor creates a door on x answering v, whose unreferenced
// notification signals the channel returned.
func valueDoor(x *side, v uint32) (kernel.Handle, chan struct{}) {
	unref := make(chan struct{}, 2)
	h, _ := x.app.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) {
		out := buffer.New(4)
		out.WriteUint32(v)
		return out, nil
	}, func() { unref <- struct{}{} })
	return h, unref
}

// call calls h on x with args, expecting a uint32 answer.
func call(t *testing.T, x *side, h kernel.Handle, args *buffer.Buffer) uint32 {
	t.Helper()
	out, err := x.app.Call(h, args)
	if err != nil {
		t.Fatal(err)
	}
	v, err := out.ReadUint32()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestIdentifierMappingTwoMachines(t *testing.T) {
	a, b := pair(t)

	// A door exported by A and imported by B can be called.
	d, _ := valueDoor(a, 7)
	dHere, err := a.app.CopyDoor(d)
	if err != nil {
		t.Fatal(err)
	}
	p := ship(t, a, d)
	if v := call(t, b, p, buffer.New(0)); v != 7 {
		t.Fatalf("B's call on A's door = %d, want 7", v)
	}

	// A keeper door on A calls the door its request carries and reports
	// whether that door is A's own d.
	home := make(chan bool, 1)
	keeper, _ := a.app.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
		h, err := a.app.AdoptFromBuffer(req)
		if err != nil {
			return nil, err
		}
		home <- a.app.SameDoor(h, dHere)
		v := call(t, a, h, buffer.New(0))
		_ = a.app.DeleteDoor(h)
		out := buffer.New(4)
		out.WriteUint32(v)
		return out, nil
	}, nil)
	k := ship(t, a, keeper)

	// A door passed as an argument from B to A works.
	e, _ := valueDoor(b, 11)
	args := buffer.New(8)
	if err := b.app.MoveToBuffer(e, args); err != nil {
		t.Fatal(err)
	}
	if v := call(t, b, k, args); v != 11 || <-home {
		t.Fatalf("A's call on B's door = %d, want 11 through a proxy", v)
	}

	// A door that travels A→B→A comes home as the original door, and the
	// proxy it travelled as on B sends no release.
	args = buffer.New(8)
	if err := b.app.MoveToBuffer(p, args); err != nil {
		t.Fatal(err)
	}
	if v := call(t, b, k, args); v != 7 || !<-home {
		t.Fatalf("d back home: call = %d, want 7 on the original door", v)
	}
	b.quiesce()
	if len(b.releases) != 0 || len(b.proxies) != 1 { // k's proxy is all B holds
		t.Fatalf("after d went home: %d releases, %d proxies on B; want 0, 1", len(b.releases), len(b.proxies))
	}

	// When B drops its proxy, exactly one release is produced; delivered
	// to A, it fires A's unreferenced exactly once.
	f, fUnref := valueDoor(a, 13)
	q := ship(t, a, f)
	if err := b.app.DeleteDoor(q); err != nil {
		t.Fatal(err)
	}
	rel := <-b.releases
	b.quiesce()
	if len(b.releases) != 0 || rel.count != 1 {
		t.Fatalf("dropped proxy: %d more releases, count %d; want 0 more, count 1", len(b.releases), rel.count)
	}
	a.mu.Lock()
	a.proto.drop(rel.key, a.them, rel.count)
	a.end()
	<-fUnref
	a.quiesce()
	if len(fUnref) != 0 {
		t.Fatal("unreferenced fired twice")
	}

	// When B's session on A expires past the grace, A reclaims its
	// references, and unreferenced fires exactly once.
	g, gUnref := valueDoor(a, 17)
	ship(t, a, g)
	now := time.Unix(1_000_000, 0)
	a.mu.Lock()
	a.proto.connClosed(nil, a.them, nil, now)
	a.proto.tick(now.Add(a.proto.cfg.LeaseGrace+time.Nanosecond), nil)
	a.end()
	<-gUnref
	a.quiesce()
	if len(gUnref) != 0 || a.Exports() != 0 || len(b.releases) != 0 {
		t.Fatalf("after the lease expired: unreferenced fired %d more times, %d exports left, %d releases",
			len(gUnref), a.Exports(), len(b.releases))
	}
}
