// The experiment bodies for every evaluation point in the paper (see
// DESIGN.md §4 for the experiment index), shared by the E<n> files beside
// this one: the two-domain fixture and echo object, and E1–E5, E8, E13.
// Each body takes a *testing.B; bench_test.go names them as benchmarks and
// EXPERIMENTS.md records what they measured.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/cluster"
	"repro/internal/subcontracts/doorsc"
	"repro/internal/subcontracts/replicon"
	"repro/internal/subcontracts/simplex"
	"repro/internal/subcontracts/singleton"
)

// world is the common two-domain fixture.
type world struct {
	k   *kernel.Kernel
	srv *core.Env
	cli *core.Env
}

func newWorld(b testing.TB) *world {
	b.Helper()
	k := kernel.New("bench")
	srv, err := sctest.NewEnv(k, "server", singleton.Register, simplex.Register,
		cluster.Register, replicon.Register)
	if err != nil {
		b.Fatal(err)
	}
	cli, err := sctest.NewEnv(k, "client", singleton.Register, simplex.Register,
		cluster.Register, replicon.Register)
	if err != nil {
		b.Fatal(err)
	}
	return &world{k: k, srv: srv, cli: cli}
}

// echoSkeleton echoes a byte payload (the "minimal remote call" body).
func echoSkeleton() stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		p, err := args.ReadBytes()
		if err != nil {
			return err
		}
		results.WriteBytes(p)
		return nil
	})
}

// callEcho runs one stub-level echo call.
func callEcho(obj *core.Object, payload []byte) error {
	return stubs.Call(obj, 0,
		func(b *buffer.Buffer) error { b.WriteBytes(payload); return nil },
		func(b *buffer.Buffer) error { _, err := b.ReadBytes(); return err })
}

var echoMT = &core.MTable{Type: "bench.echo", DefaultSC: singleton.SCID, Ops: []string{"echo"}}

func init() {
	core.MustRegisterType("bench.echo", core.ObjectType)
	core.MustRegisterMTable(echoMT)
}

// ---------------------------------------------------------------------
// E1 — §9.3: per-invocation subcontract overhead.
//
// The paper: "Each object invocation always requires an additional two
// indirect procedure calls from the stubs into the client subcontract and
// typically requires a third indirect call from the server-side
// subcontract into the server stubs ... we estimate that these costs add
// less than 2 microseconds (on a SPARCstation 2) to the costs for a
// minimal remote call."

// E1DirectDoorCall is the baseline: a raw kernel door call carrying the
// same bytes, with no stubs and no subcontract.
func E1DirectDoorCall(payload int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		h, _ := w.srv.Domain.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
			p, err := req.ReadBytes()
			if err != nil {
				return nil, err
			}
			reply := buffer.New(len(p) + 8)
			reply.WriteBytes(p)
			return reply, nil
		}, nil)
		moved := buffer.New(8)
		if err := w.srv.Domain.MoveToBuffer(h, moved); err != nil {
			b.Fatal(err)
		}
		ch, err := w.cli.Domain.AdoptFromBuffer(moved)
		if err != nil {
			b.Fatal(err)
		}
		p := make([]byte, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := buffer.New(len(p) + 8)
			req.WriteBytes(p)
			reply, err := w.cli.Domain.Call(ch, req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := reply.ReadBytes(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E1SubcontractCall is the full path: stubs → invoke_preamble → invoke →
// door → server subcontract → skeleton, via the given subcontract flavor
// ("singleton" or "simplex").
func E1SubcontractCall(flavor string, payload int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		var obj *core.Object
		switch flavor {
		case "singleton":
			obj, _ = singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
		case "simplex":
			obj = simplex.Export(w.srv, echoMT, echoSkeleton(), nil)
		default:
			b.Fatalf("unknown flavor %q", flavor)
		}
		remote, err := sctest.Transfer(obj, w.cli, echoMT)
		if err != nil {
			b.Fatal(err)
		}
		p := make([]byte, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := callEcho(remote, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E1LocalOptimized measures the §5.2.1 same-address-space fast path: the
// simplex local operations vector runs the skeleton with no kernel door.
func E1LocalOptimized(payload int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		obj := simplex.Export(w.srv, echoMT, echoSkeleton(), nil)
		p := make([]byte, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := callEcho(obj, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// E2 — §9.3: object-transmission overhead. "Transmitting an object
// requires an extra pair of calls for marshalling and unmarshalling and
// typically also involves the cost of marshalling and unmarshalling a
// subcontract ID."

// E2RawDoorTransfer is the baseline: move a bare door identifier through
// a buffer with no subcontract framing.
func E2RawDoorTransfer(b *testing.B) {
	w := newWorld(b)
	h, _ := w.srv.Domain.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
		return buffer.New(0), nil
	}, nil)
	buf := buffer.New(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.srv.Domain.CopyToBuffer(h, buf); err != nil {
			b.Fatal(err)
		}
		ch, err := w.cli.Domain.AdoptFromBuffer(buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.cli.Domain.DeleteDoor(ch); err != nil {
			b.Fatal(err)
		}
	}
}

// E2ObjectTransfer transmits a whole object through its subcontract:
// marshal_copy on the sender, compatible-subcontract unmarshal on the
// receiver. doors selects the representation width (1 = singleton,
// >1 = replicon with that many replicas).
func E2ObjectTransfer(doors int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		var obj *core.Object
		if doors == 1 {
			obj, _ = singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
		} else {
			g := replicon.NewGroup()
			for i := 0; i < doors; i++ {
				g.Join(w.srv, fmt.Sprintf("r%d", i), echoSkeleton())
			}
			obj = g.Export(w.srv, echoMT)
		}
		buf := buffer.New(128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := obj.MarshalCopy(buf); err != nil {
				b.Fatal(err)
			}
			got, err := core.Unmarshal(w.cli, echoMT, buf)
			if err != nil {
				b.Fatal(err)
			}
			if err := got.Consume(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// E3 — Figures 3/4, §7: the full life cycle of a simplex object.

// E3Lifecycle creates, transmits, invokes, copies, and consumes one
// object per iteration.
func E3Lifecycle(b *testing.B) {
	w := newWorld(b)
	ctr := &sctest.Counter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := simplex.Export(w.srv, sctest.CounterMT, ctr.Skeleton(), nil)
		remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sctest.Add(remote, 1); err != nil {
			b.Fatal(err)
		}
		cp, err := remote.Copy()
		if err != nil {
			b.Fatal(err)
		}
		if err := cp.Consume(); err != nil {
			b.Fatal(err)
		}
		if err := remote.Consume(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E4 — §5: replicon failover.

// E4InvokeAllAlive measures steady-state replicon invocation with n live
// replicas (the client talks to the first).
func E4InvokeAllAlive(n int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		g := replicon.NewGroup()
		ctr := &sctest.Counter{}
		for i := 0; i < n; i++ {
			g.Join(w.srv, fmt.Sprintf("r%d", i), ctr.Skeleton())
		}
		obj := g.Export(w.cli, sctest.CounterMT)
		if _, err := sctest.Get(obj); err != nil { // absorb the first epoch update
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sctest.Get(obj); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E4FailoverFirstCall measures the first call after crash of the k
// replicas the client is talking to, in a group of n: the cost of
// discovering the dead doors, failing over, and adopting the piggybacked
// replica-set update.
func E4FailoverFirstCall(n, crash int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		ctr := &sctest.Counter{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := replicon.NewGroup()
			var members []*replicon.Member
			for j := 0; j < n; j++ {
				members = append(members, g.Join(w.srv, fmt.Sprintf("r%d", j), ctr.Skeleton()))
			}
			obj := g.Export(w.cli, sctest.CounterMT)
			if _, err := sctest.Get(obj); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < crash; j++ {
				members[j].Crash()
			}
			b.StartTimer()
			if _, err := sctest.Get(obj); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := obj.Consume(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// ---------------------------------------------------------------------
// E5 — §8.1: cluster vs simplex resource usage and throughput.

// E5ExportDoors exports n objects with the given flavor and reports the
// kernel doors consumed per object (the cluster subcontract's point).
func E5ExportDoors(flavor string, n int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := newWorld(b)
			before := w.k.LiveDoors()
			switch flavor {
			case "simplex":
				for j := 0; j < n; j++ {
					obj := simplex.Export(w.srv, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
					// Force door creation, as handing the object out would.
					buf := buffer.New(64)
					if err := obj.MarshalCopy(buf); err != nil {
						b.Fatal(err)
					}
					kernel.ReleaseBufferDoors(buf)
				}
			case "cluster":
				s := cluster.NewServer(w.srv)
				for j := 0; j < n; j++ {
					if _, err := s.Export(sctest.CounterMT, (&sctest.Counter{}).Skeleton()); err != nil {
						b.Fatal(err)
					}
				}
			default:
				b.Fatalf("unknown flavor %q", flavor)
			}
			// Kernel door objects — not identifiers — are the resource
			// the cluster subcontract economizes.
			b.ReportMetric(float64(w.k.LiveDoors()-before)/float64(n), "doors/obj")
		}
	}
}

// E5Invoke measures invocation through a cluster object (tag dispatch)
// vs a simplex object.
func E5Invoke(flavor string) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		ctr := &sctest.Counter{}
		var obj *core.Object
		switch flavor {
		case "simplex":
			local := simplex.Export(w.srv, sctest.CounterMT, ctr.Skeleton(), nil)
			var err error
			obj, err = sctest.Transfer(local, w.cli, sctest.CounterMT)
			if err != nil {
				b.Fatal(err)
			}
		case "cluster":
			s := cluster.NewServer(w.srv)
			local, err := s.Export(sctest.CounterMT, ctr.Skeleton())
			if err != nil {
				b.Fatal(err)
			}
			obj, err = sctest.Transfer(local, w.cli, sctest.CounterMT)
			if err != nil {
				b.Fatal(err)
			}
		default:
			b.Fatalf("unknown flavor %q", flavor)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sctest.Get(obj); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// E8 — §5.1.5: marshal_copy vs copy-then-marshal.

// E8CopyThenMarshal is the unoptimized sequence the paper describes:
// fabricate a copy, marshal it (deleting it), per transmission.
func E8CopyThenMarshal(doors int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		obj := repliconObject(b, w, doors)
		buf := buffer.New(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			cp, err := obj.Copy()
			if err != nil {
				b.Fatal(err)
			}
			if err := cp.Marshal(buf); err != nil {
				b.Fatal(err)
			}
			kernel.ReleaseBufferDoors(buf)
		}
	}
}

// E8MarshalCopy is the optimized operation that produces the same effect
// without fabricating the intermediate object.
func E8MarshalCopy(doors int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		obj := repliconObject(b, w, doors)
		buf := buffer.New(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := obj.MarshalCopy(buf); err != nil {
				b.Fatal(err)
			}
			kernel.ReleaseBufferDoors(buf)
		}
	}
}

// ---------------------------------------------------------------------
// E13 — §9.1: specialized stubs for popular type/subcontract combinations
// (the paper's future direction, implemented in doorsc.FastCall).

// E13Call invokes a singleton-exported echo through the chosen stub path:
// "generic" (stubs.Call, two indirect subcontract calls) or "specialized"
// (doorsc.FastCall, inlined for door-based subcontracts).
func E13Call(path string, payload int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		obj, _ := singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
		remote, err := sctest.Transfer(obj, w.cli, echoMT)
		if err != nil {
			b.Fatal(err)
		}
		p := make([]byte, payload)
		marshal := func(buf *buffer.Buffer) error { buf.WriteBytes(p); return nil }
		unmarshal := func(buf *buffer.Buffer) error { _, err := buf.ReadBytes(); return err }
		b.ReportAllocs()
		b.ResetTimer()
		switch path {
		case "generic":
			for i := 0; i < b.N; i++ {
				if err := stubs.Call(remote, 0, marshal, unmarshal); err != nil {
					b.Fatal(err)
				}
			}
		case "specialized":
			for i := 0; i < b.N; i++ {
				if err := doorsc.FastCall(remote, 0, marshal, unmarshal); err != nil {
					b.Fatal(err)
				}
			}
		default:
			b.Fatalf("unknown path %q", path)
		}
	}
}

func repliconObject(b *testing.B, w *world, doors int) *core.Object {
	b.Helper()
	g := replicon.NewGroup()
	for i := 0; i < doors; i++ {
		g.Join(w.srv, fmt.Sprintf("r%d", i), echoSkeleton())
	}
	return g.Export(w.cli, echoMT)
}
