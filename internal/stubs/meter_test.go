package stubs_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/trace"
)

// plainSC is a subcontract with no metrics or trace code of its own: its
// Invoke runs the skeleton in-process, and an op numbered opExpire fails
// as a network wait that ran out of budget would.
type plainSC struct{ skel stubs.Skeleton }

const (
	plainName = "stubstest.plain"
	opExpire  = 7
)

func (*plainSC) ID() core.ID  { return 998 }
func (*plainSC) Name() string { return plainName }
func (*plainSC) Unmarshal(*core.Env, *core.MTable, *buffer.Buffer) (*core.Object, error) {
	return nil, errors.New("plain: not marshallable")
}
func (*plainSC) Marshal(*core.Object, *buffer.Buffer) error     { return errors.New("no") }
func (*plainSC) MarshalCopy(*core.Object, *buffer.Buffer) error { return errors.New("no") }
func (*plainSC) InvokePreamble(obj *core.Object, _ *core.Call) error {
	return obj.CheckLive()
}
func (p *plainSC) Invoke(_ *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if call.Op == opExpire {
		return nil, core.ErrDeadlineExceeded
	}
	reply := buffer.Get(64)
	if err := stubs.ServeCallInfo(p.skel, call.Args(), reply, call.Info()); err != nil {
		buffer.Put(reply)
		return nil, err
	}
	return reply, nil
}
func (*plainSC) Copy(obj *core.Object) (*core.Object, error) { return obj, nil }
func (*plainSC) Consume(obj *core.Object) error              { return obj.MarkConsumed() }

// plainSnapshot is the registry's current snapshot of plainSC's block.
func plainSnapshot(t *testing.T) scstats.Snapshot {
	t.Helper()
	for _, sn := range scstats.AllSnapshots() {
		if sn.Name == plainName {
			return sn
		}
	}
	return scstats.Snapshot{Name: plainName}
}

// TestBaseMeasuresEveryInvocation: a subcontract that meters nothing
// itself is measured by the base under its Name() — calls, per-op
// latency and the deadline ending, through Call and CallOneway alike —
// and a traced call runs under a "<name>.invoke" span that parents the
// server's skeleton span.
func TestBaseMeasuresEveryInvocation(t *testing.T) {
	env := core.NewEnv(kernel.New("meter").NewDomain("d"))
	mt := &core.MTable{Type: "stubstest.plain", DefaultSC: 998, Ops: []string{"nop"}}
	nop := stubs.SkeletonFunc(func(core.OpNum, *buffer.Buffer, *buffer.Buffer) error { return nil })
	obj := core.NewObject(env, mt, &plainSC{skel: nop}, nil)
	before := plainSnapshot(t)

	callTrace, onewayTrace := trace.NewTraceID(), trace.NewTraceID()
	if err := stubs.Call(obj, 0, nil, nil, core.WithTrace(callTrace)); err != nil {
		t.Fatal(err)
	}
	if err := stubs.CallOneway(obj, 0, nil, core.WithTrace(onewayTrace)); err != nil {
		t.Fatal(err)
	}
	if err := stubs.Call(obj, opExpire, nil, nil); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("expiring op: %v, want ErrDeadlineExceeded", err)
	}
	// An already-ended context fails fast: counted and classified, but
	// given no latency.
	if err := stubs.Call(obj, 0, nil, nil, core.WithDeadline(time.Now().Add(-time.Second))); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("expired call: %v, want ErrDeadlineExceeded", err)
	}

	after := plainSnapshot(t)
	if d := after.Calls - before.Calls; d != 4 {
		t.Errorf("%s calls grew by %d, want 4", plainName, d)
	}
	if d := after.Errors - before.Errors; d != 2 {
		t.Errorf("%s errors grew by %d, want 2", plainName, d)
	}
	if d := after.DeadlineExceeded - before.DeadlineExceeded; d != 2 {
		t.Errorf("%s deadline endings grew by %d, want 2", plainName, d)
	}
	if d := after.Lat.Sub(before.Lat).Count; d != 3 {
		t.Errorf("%s latency samples grew by %d, want 3 (the fail-fast call has none)", plainName, d)
	}
	opCount := func(sn scstats.Snapshot, op uint32) uint64 {
		for _, o := range sn.Ops {
			if o.Op == op {
				return o.Lat.Count
			}
		}
		return 0
	}
	if d := opCount(after, 0) - opCount(before, 0); d != 2 {
		t.Errorf("op 0 latency samples grew by %d, want 2", d)
	}
	if d := opCount(after, opExpire) - opCount(before, opExpire); d != 1 {
		t.Errorf("op %d latency samples grew by %d, want 1", opExpire, d)
	}

	for _, id := range []uint64{callTrace, onewayTrace} {
		spans := trace.Collect(id)
		var invoke trace.SpanData
		for _, sd := range spans {
			if sd.Name == plainName+".invoke" {
				invoke = sd
			}
		}
		if invoke.SpanID == 0 || invoke.ParentID != 0 {
			t.Fatalf("trace %016x: no root %s.invoke span in %+v", id, plainName, spans)
		}
		parented := false
		for _, sd := range spans {
			parented = parented || sd.Name == "skeleton" && sd.ParentID == invoke.SpanID
		}
		if !parented {
			t.Errorf("trace %016x: no skeleton span under %s.invoke in %+v", id, plainName, spans)
		}
	}

	// A fresh object's first calls, made from several goroutines at once,
	// race to look its meter up; every one of them is counted.
	fresh := core.NewObject(env, mt, &plainSC{skel: nop}, nil)
	const callers = 8
	before = plainSnapshot(t)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := stubs.Call(fresh, 0, nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if d := plainSnapshot(t).Calls - before.Calls; d != callers {
		t.Errorf("%d concurrent first calls counted %d", callers, d)
	}
}
