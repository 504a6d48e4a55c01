package stubs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
)

// loopSC is a subcontract whose invoke runs the skeleton in-process,
// exercising the full stub path without a kernel door.
type loopSC struct {
	skel      Skeleton
	preambles int
	releases  int
}

func (l *loopSC) ID() core.ID  { return 999 }
func (l *loopSC) Name() string { return "loop" }
func (l *loopSC) Unmarshal(env *core.Env, mt *core.MTable, buf *buffer.Buffer) (*core.Object, error) {
	return nil, errors.New("loop: not marshallable")
}
func (l *loopSC) Marshal(obj *core.Object, buf *buffer.Buffer) error     { return errors.New("no") }
func (l *loopSC) MarshalCopy(obj *core.Object, buf *buffer.Buffer) error { return errors.New("no") }
func (l *loopSC) InvokePreamble(obj *core.Object, call *core.Call) error {
	l.preambles++
	// A preamble that installs a Release hook owns the argument buffer
	// (see releaseArgs), as shm's does; this one owns the pooled default.
	call.Release = func() { l.releases++; buffer.Put(call.Args()) }
	return nil
}
func (l *loopSC) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	reply := buffer.New(64)
	if err := ServeCall(l.skel, call.Args(), reply); err != nil {
		return nil, err
	}
	return reply, nil
}
func (l *loopSC) Copy(obj *core.Object) (*core.Object, error) { return obj, nil }
func (l *loopSC) Consume(obj *core.Object) error              { return obj.MarkConsumed() }

// adder implements a two-op interface: 0 = add(a,b)->sum, 1 = fail(msg).
func adderSkeleton() Skeleton {
	return SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case 0:
			a, err := args.ReadInt32()
			if err != nil {
				return err
			}
			b, err := args.ReadInt32()
			if err != nil {
				return err
			}
			results.WriteInt32(a + b)
			return nil
		case 1:
			msg, err := args.ReadString()
			if err != nil {
				return err
			}
			return errors.New(msg)
		default:
			return ErrBadOp
		}
	})
}

func newLoopObject(t *testing.T) (*core.Object, *loopSC) {
	t.Helper()
	k := kernel.New("m")
	env := core.NewEnv(k.NewDomain("d"))
	sc := &loopSC{skel: adderSkeleton()}
	mt := &core.MTable{Type: "stubstest.adder", DefaultSC: sc.ID(), Ops: []string{"add", "fail"}}
	return core.NewObject(env, mt, sc, nil), sc
}

func TestCallRoundTrip(t *testing.T) {
	obj, sc := newLoopObject(t)
	var sum int32
	err := Call(obj, 0,
		func(b *buffer.Buffer) error {
			b.WriteInt32(19)
			b.WriteInt32(23)
			return nil
		},
		func(b *buffer.Buffer) error {
			var err error
			sum, err = b.ReadInt32()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("sum = %d, want 42", sum)
	}
	if sc.preambles != 1 {
		t.Fatalf("preambles = %d, want 1", sc.preambles)
	}
	if sc.releases != 1 {
		t.Fatalf("releases = %d, want 1 (stub layer must run call.Release)", sc.releases)
	}
}

func TestRemoteException(t *testing.T) {
	obj, _ := newLoopObject(t)
	err := Call(obj, 1,
		func(b *buffer.Buffer) error {
			b.WriteString("disk on fire")
			return nil
		}, nil)
	if err == nil {
		t.Fatal("expected remote error")
	}
	if !IsRemote(err) {
		t.Fatalf("IsRemote(%v) = false", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("error lost message: %v", err)
	}
}

func TestUnknownOpIsRemoteException(t *testing.T) {
	obj, _ := newLoopObject(t)
	err := Call(obj, 99, nil, nil)
	if !IsRemote(err) {
		t.Fatalf("unknown op error = %v, want remote exception", err)
	}
	if !strings.Contains(err.Error(), "unknown operation") {
		t.Fatalf("error = %v", err)
	}
}

func TestCallNilObject(t *testing.T) {
	if err := Call(nil, 0, nil, nil); !errors.Is(err, core.ErrNilObject) {
		t.Fatalf("Call(nil) = %v, want ErrNilObject", err)
	}
}

func TestNoArgsNoResults(t *testing.T) {
	k := kernel.New("m")
	env := core.NewEnv(k.NewDomain("d"))
	called := false
	sc := &loopSC{skel: SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		called = true
		return nil
	})}
	mt := &core.MTable{Type: "stubstest.void", DefaultSC: sc.ID(), Ops: []string{"ping"}}
	obj := core.NewObject(env, mt, sc, nil)
	if err := Call(obj, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("skeleton not invoked")
	}
}

func TestServeCallTruncatedHeader(t *testing.T) {
	reply := buffer.New(8)
	if err := ServeCall(adderSkeleton(), buffer.New(0), reply); err == nil {
		t.Fatal("truncated call accepted")
	}
}

func TestServeCallSplicesResultDoors(t *testing.T) {
	k := kernel.New("m")
	srv := k.NewDomain("srv")
	skel := SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		h, _ := srv.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
			return buffer.New(0), nil
		}, nil)
		return srv.MoveToBuffer(h, results)
	})
	req := buffer.New(8)
	req.WriteUint32(0)
	reply := buffer.New(8)
	if err := ServeCall(skel, req, reply); err != nil {
		t.Fatal(err)
	}
	if status, _ := reply.ReadByte(); status != statusOK {
		t.Fatalf("status = %d", status)
	}
	cli := k.NewDomain("cli")
	if _, err := cli.AdoptFromBuffer(reply); err != nil {
		t.Fatalf("door did not survive splice: %v", err)
	}
}

func TestCallOneway(t *testing.T) {
	obj, _ := newLoopObject(t)
	// A successful oneway call.
	err := Call(obj, 0,
		func(b *buffer.Buffer) error { b.WriteInt32(1); b.WriteInt32(2); return nil },
		func(b *buffer.Buffer) error { _, err := b.ReadInt32(); return err })
	if err != nil {
		t.Fatal(err)
	}
	if err := CallOneway(obj, 0, func(b *buffer.Buffer) error {
		b.WriteInt32(1)
		b.WriteInt32(2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Remote exceptions are swallowed: fire and forget.
	if err := CallOneway(obj, 1, func(b *buffer.Buffer) error {
		b.WriteString("quietly ignored")
		return nil
	}); err != nil {
		t.Fatalf("oneway surfaced a server failure: %v", err)
	}
	if err := CallOneway(nil, 0, nil); !errors.Is(err, core.ErrNilObject) {
		t.Fatalf("CallOneway(nil) = %v", err)
	}
}

func TestDecodeReplyEdgeCases(t *testing.T) {
	// Truncated reply.
	if err := DecodeReply(buffer.New(0), nil); err == nil {
		t.Fatal("empty reply accepted")
	}
	// Unknown status byte.
	bad := buffer.New(4)
	bad.WriteByte(7)
	if err := DecodeReply(bad, nil); err == nil {
		t.Fatal("bad status accepted")
	}
	// Truncated exception payload.
	trunc := buffer.New(4)
	trunc.WriteByte(1) // statusError with no code/message
	if err := DecodeReply(trunc, nil); err == nil {
		t.Fatal("truncated exception accepted")
	}
	// Leftover doors in a reply are released, not leaked: give the reply
	// an unconsumed door and check the unref fires.
	k := kernel.New("m")
	d := k.NewDomain("d")
	unref := make(chan struct{})
	h, _ := d.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) { return buffer.New(0), nil },
		func() { close(unref) })
	reply := buffer.New(8)
	reply.WriteByte(0) // statusOK
	if err := d.MoveToBuffer(h, reply); err != nil {
		t.Fatal(err)
	}
	if err := DecodeReply(reply, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("reply door leaked")
	}
}

func TestMarshalArgsFailureSurfaces(t *testing.T) {
	obj, _ := newLoopObject(t)
	boom := errors.New("marshal exploded")
	err := Call(obj, 0, func(*buffer.Buffer) error { return boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Call = %v, want wrapped marshal error", err)
	}
}

func TestRemoteErrorUnwrap(t *testing.T) {
	err := &RemoteError{Msg: "x"}
	if !IsRemote(err) {
		t.Fatal("IsRemote on direct RemoteError = false")
	}
	if IsRemote(errors.New("plain")) {
		t.Fatal("IsRemote on plain error = true")
	}
}
