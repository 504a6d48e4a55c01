package netd

import (
	"errors"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// TestDeadlineBoundsForward proves the deadline interrupts a hung remote
// call mid-flight: the proxy door's forward wait is bounded by the
// remaining budget, not by the server coming back.
func TestDeadlineBoundsForward(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	entered := make(chan struct{}, 1)
	hang := stubsSkeleton(func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	})
	obj, _ := singleton.Export(a.env, sctest.CounterMT, hang, nil)
	a.srv.PublishRoot("hang", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "hang", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = sctest.Get(remote, core.WithTimeout(50*time.Millisecond))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("hung call with deadline = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline return took %v", elapsed)
	}
	if core.Retryable(err) {
		t.Fatal("deadline ending classified retryable")
	}
}

// TestCancelAbortsForward proves closing the cancellation channel wakes a
// blocked forward immediately.
func TestCancelAbortsForward(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	entered := make(chan struct{}, 1)
	hang := stubsSkeleton(func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	})
	obj, _ := singleton.Export(a.env, sctest.CounterMT, hang, nil)
	a.srv.PublishRoot("hang", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "hang", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := sctest.Get(remote, core.WithCancel(cancel))
		done <- err
	}()
	select {
	case <-entered: // the call crossed the wire and is in its handler
	case <-time.After(2 * time.Second):
		t.Fatal("the call never reached the exporter's handler")
	}
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrCancelled) {
			t.Fatalf("cancelled call = %v, want ErrCancelled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not wake the forwarded call")
	}
}

// TestExpiredDeadlineFailsBeforeSend proves an already-expired context
// never reaches the wire: it fails fast at the stub layer.
func TestExpiredDeadlineFailsBeforeSend(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	_, err = sctest.Get(remote, core.WithDeadline(time.Now().Add(-time.Second)))
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("expired-deadline call = %v, want ErrDeadlineExceeded", err)
	}
	if ctr.Calls() != 0 {
		t.Fatalf("expired call reached the server (%d calls)", ctr.Calls())
	}
}

// infoSkel records the invocation context the server side observed.
type infoSkel struct {
	budget chan time.Duration
	trace  chan uint64
}

func (s *infoSkel) Dispatch(op core.OpNum, args, results *buffer.Buffer) error {
	return s.DispatchInfo(op, args, results, nil)
}

func (s *infoSkel) DispatchInfo(op core.OpNum, args, results *buffer.Buffer, info *kernel.Info) error {
	if rem, ok := info.Remaining(); ok {
		s.budget <- rem
	} else {
		s.budget <- 0
	}
	if info != nil {
		s.trace <- info.Trace
	} else {
		s.trace <- 0
	}
	results.WriteInt64(0)
	return nil
}

var _ stubs.InfoSkeleton = (*infoSkel)(nil)

// TestServerInheritsBudgetAndTrace proves the wire header delivers the
// remaining deadline budget and the trace identifier to the server-side
// skeleton on the other machine.
func TestServerInheritsBudgetAndTrace(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")

	skel := &infoSkel{budget: make(chan time.Duration, 1), trace: make(chan uint64, 1)}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, skel, nil)
	a.srv.PublishRoot("probe", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "probe", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 5 * time.Second
	if _, err := sctest.Get(remote, core.WithTimeout(budget), core.WithTrace(0xfeed)); err != nil {
		t.Fatal(err)
	}
	got := <-skel.budget
	if got <= 0 || got > budget {
		t.Fatalf("server-side remaining budget = %v, want in (0, %v]", got, budget)
	}
	if tr := <-skel.trace; tr != 0xfeed {
		t.Fatalf("server-side trace = %#x, want 0xfeed", tr)
	}
}

// TestContextFreeCallStillWorks pins the compact header's zero-flag path.
func TestContextFreeCallStillWorks(t *testing.T) {
	a := newMachine(t, "A")
	b := newMachine(t, "B")
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(a.env, sctest.CounterMT, ctr.Skeleton(), nil)
	a.srv.PublishRoot("counter", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(remote, 7); err != nil || v != 7 {
		t.Fatalf("context-free cross-machine Add = %d, %v", v, err)
	}
}
