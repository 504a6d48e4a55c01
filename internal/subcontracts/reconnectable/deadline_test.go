package reconnectable

import (
	"errors"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/sctest"
	"repro/internal/subcontracts/doorsc"
	"repro/internal/subcontracts/singleton"
)

// TestDeadlineBoundsReresolveLoop is the headline acceptance case for
// invocation contexts: a call through reconnectable against a permanently
// dead server with a 50 ms deadline must return ErrDeadlineExceeded within
// 100 ms — instead of grinding through its full resolution budget
// (maxAttempts pauses, which here would outlast the deadline and end in
// ErrGaveUp).
func TestDeadlineBoundsReresolveLoop(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}

	// Permanently dead: the door is revoked and the name unbound, so no
	// resolution attempt can ever succeed.
	door.Revoke()
	if err := w.ctx.Unbind("svc"); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = sctest.Get(remote, core.WithTimeout(50*time.Millisecond))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("Get against dead server with 50ms deadline = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("deadline honored after %v, want within 100ms", elapsed)
	}
}

// TestCancelUnblocksBackoffSleep proves cancellation wakes the re-resolve
// loop out of its pause immediately: here the naming context refuses every
// resolution until an hour from now, so the pause would last that long.
func TestCancelUnblocksBackoffSleep(t *testing.T) {
	w := newWorld(t)
	refused := &kernel.RetryAt{At: time.Now().Add(time.Hour), Err: errors.New("naming: refused")}
	h, _ := w.cli.Domain.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) { return nil, refused }, nil)
	w.cli.Set(ContextVar, core.NewObject(w.cli, naming.ContextMT, singleton.SC, doorsc.Rep{H: h}))

	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	door.Revoke()
	if err := w.ctx.Unbind("svc"); err != nil {
		t.Fatal(err)
	}

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := sctest.Get(remote, core.WithCancel(cancel))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the loop enter a backoff sleep
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrCancelled) {
			t.Fatalf("cancelled re-resolve = %v, want ErrCancelled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unblock the re-resolve loop")
	}
}

// TestDeadlineSurvivesSuccessfulReconnect: a deadline generous enough for
// the recovery leaves the reconnection behaviour intact.
func TestDeadlineSurvivesSuccessfulReconnect(t *testing.T) {
	w := newWorld(t)
	ctr := &sctest.Counter{}
	obj, door, err := Export(w.srv, sctest.CounterMT, ctr.Skeleton(), "svc", w.ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sctest.Transfer(obj, w.cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	crashAndRestart(t, w, "svc", ctr, door)
	if v, err := sctest.Add(remote, 3, core.WithTimeout(5*time.Second)); err != nil || v != 3 {
		t.Fatalf("Add across crash with generous deadline = %d, %v", v, err)
	}
}
