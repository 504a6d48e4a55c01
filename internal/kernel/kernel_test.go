package kernel

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
)

// echoProc returns a reply echoing the request's first uint32 plus one.
func echoProc(req *buffer.Buffer) (*buffer.Buffer, error) {
	v, err := req.ReadUint32()
	if err != nil {
		return nil, err
	}
	rep := buffer.New(4)
	rep.WriteUint32(v + 1)
	return rep, nil
}

func TestDoorCall(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	cli := k.NewDomain("client")

	h, _ := srv.CreateDoor(echoProc, nil)

	// Transfer the identifier to the client through a buffer, as the
	// kernel would during an IPC.
	b := buffer.New(8)
	if err := srv.MoveToBuffer(h, b); err != nil {
		t.Fatal(err)
	}
	ch, err := cli.AdoptFromBuffer(b)
	if err != nil {
		t.Fatal(err)
	}

	req := buffer.New(4)
	req.WriteUint32(41)
	rep, err := cli.Call(ch, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.ReadUint32()
	if err != nil || got != 42 {
		t.Fatalf("reply = %d, %v; want 42", got, err)
	}
}

func TestMoveSemantics(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	h, _ := srv.CreateDoor(echoProc, nil)

	b := buffer.New(8)
	if err := srv.MoveToBuffer(h, b); err != nil {
		t.Fatal(err)
	}
	// After the move the sending domain no longer holds the identifier.
	if _, err := srv.Call(h, buffer.New(0)); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("Call on moved handle = %v, want ErrBadHandle", err)
	}
	if err := srv.DeleteDoor(h); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("DeleteDoor on moved handle = %v, want ErrBadHandle", err)
	}
	ReleaseBufferDoors(b)
}

func TestCopySemantics(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	cli := k.NewDomain("client")
	h, door := srv.CreateDoor(echoProc, nil)

	b := buffer.New(8)
	if err := srv.CopyToBuffer(h, b); err != nil {
		t.Fatal(err)
	}
	if door.Refs() != 2 {
		t.Fatalf("refs after copy-to-buffer = %d, want 2", door.Refs())
	}
	ch, err := cli.AdoptFromBuffer(b)
	if err != nil {
		t.Fatal(err)
	}
	// Both the original and the copy work.
	for _, tc := range []struct {
		d *Domain
		h Handle
	}{{srv, h}, {cli, ch}} {
		req := buffer.New(4)
		req.WriteUint32(1)
		if _, err := tc.d.Call(tc.h, req); err != nil {
			t.Fatalf("call via %s: %v", tc.d.Name(), err)
		}
	}
}

func TestCopyDoorSameDoor(t *testing.T) {
	k := New("m1")
	d := k.NewDomain("d")
	h, door := d.CreateDoor(echoProc, nil)
	h2, err := d.CopyDoor(h)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SameDoor(h, h2) {
		t.Fatal("copy does not designate the same door")
	}
	if door.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", door.Refs())
	}
	if d.HandleCount() != 2 {
		t.Fatalf("handle count = %d, want 2", d.HandleCount())
	}
}

func TestRevoke(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	cli := k.NewDomain("client")
	h, door := srv.CreateDoor(echoProc, nil)

	b := buffer.New(8)
	if err := srv.CopyToBuffer(h, b); err != nil {
		t.Fatal(err)
	}
	ch, _ := cli.AdoptFromBuffer(b)

	door.Revoke()
	if !door.Revoked() {
		t.Fatal("door not marked revoked")
	}
	req := buffer.New(4)
	req.WriteUint32(1)
	if _, err := cli.Call(ch, req); !errors.Is(err, ErrRevoked) {
		t.Fatalf("Call on revoked door = %v, want ErrRevoked", err)
	}
	// The client still holds the (dead) identifier; deleting it works.
	if err := cli.DeleteDoor(ch); err != nil {
		t.Fatal(err)
	}
}

func TestRevokeHandle(t *testing.T) {
	k := New("m1")
	d := k.NewDomain("d")
	h, door := d.CreateDoor(echoProc, nil)
	if err := d.RevokeHandle(h); err != nil {
		t.Fatal(err)
	}
	if !door.Revoked() {
		t.Fatal("RevokeHandle did not revoke")
	}
	if err := d.RevokeHandle(Handle(999)); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("RevokeHandle on bad handle = %v", err)
	}
}

func TestUnreferencedNotification(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	cli := k.NewDomain("client")

	unref := make(chan struct{})
	h, _ := srv.CreateDoor(echoProc, func() { close(unref) })

	h2, err := srv.CopyDoor(h)
	if err != nil {
		t.Fatal(err)
	}
	b := buffer.New(8)
	if err := srv.MoveToBuffer(h2, b); err != nil {
		t.Fatal(err)
	}
	ch, _ := cli.AdoptFromBuffer(b)

	if err := srv.DeleteDoor(h); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unref:
		t.Fatal("unreferenced fired while client identifier outstanding")
	case <-time.After(10 * time.Millisecond):
	}
	if err := cli.DeleteDoor(ch); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never delivered")
	}
}

func TestUnreferencedViaBufferDiscard(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	unref := make(chan struct{})
	h, _ := srv.CreateDoor(echoProc, func() { close(unref) })
	b := buffer.New(8)
	if err := srv.MoveToBuffer(h, b); err != nil {
		t.Fatal(err)
	}
	ReleaseBufferDoors(b)
	select {
	case <-unref:
	case <-time.After(2 * time.Second):
		t.Fatal("unreferenced notification never delivered after buffer discard")
	}
}

func TestForgedHandleRejected(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	other := k.NewDomain("other")
	h, _ := srv.CreateDoor(echoProc, nil)

	// A handle value is meaningless in another domain: the capability
	// model must reject it even if the numeric value collides.
	if _, err := other.Call(h, buffer.New(0)); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("cross-domain forged call = %v, want ErrBadHandle", err)
	}
	if _, err := other.CopyDoor(h); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("cross-domain forged copy = %v, want ErrBadHandle", err)
	}
}

func TestAdoptNonDoorSlot(t *testing.T) {
	k := New("m1")
	d := k.NewDomain("d")
	b := buffer.New(8)
	b.WriteDoor("not a door")
	if _, err := d.AdoptFromBuffer(b); !errors.Is(err, ErrNotADoor) {
		t.Fatalf("AdoptFromBuffer = %v, want ErrNotADoor", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	k := New("m1")
	srv := k.NewDomain("server")
	cli := k.NewDomain("client")
	h, _ := srv.CreateDoor(echoProc, nil)
	b := buffer.New(8)
	if err := srv.MoveToBuffer(h, b); err != nil {
		t.Fatal(err)
	}
	ch, _ := cli.AdoptFromBuffer(b)

	const goroutines = 16
	const callsPer = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				req := buffer.New(4)
				req.WriteUint32(uint32(i))
				rep, err := cli.Call(ch, req)
				if err != nil {
					errs <- err
					return
				}
				got, err := rep.ReadUint32()
				if err != nil || got != uint32(i)+1 {
					errs <- errors.New("bad reply")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentCopyDelete(t *testing.T) {
	k := New("m1")
	d := k.NewDomain("d")
	h, door := d.CreateDoor(echoProc, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h2, err := d.CopyDoor(h)
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.DeleteDoor(h2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if door.Refs() != 1 {
		t.Fatalf("refs after churn = %d, want 1", door.Refs())
	}
}

func TestKernelAndDomainNames(t *testing.T) {
	k := New("machineA")
	if k.Name() != "machineA" {
		t.Fatalf("kernel name = %q", k.Name())
	}
	d := k.NewDomain("dom")
	if d.Name() != "dom" || d.Kernel() != k {
		t.Fatalf("domain identity wrong: %q %p", d.Name(), d.Kernel())
	}
}

func TestDeleteUnknownHandle(t *testing.T) {
	k := New("m1")
	d := k.NewDomain("d")
	if err := d.DeleteDoor(12345); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("DeleteDoor = %v, want ErrBadHandle", err)
	}
}

func TestRefOf(t *testing.T) {
	k := New("m1")
	d := k.NewDomain("d")
	h, door := d.CreateDoor(echoProc, nil)
	r, err := d.RefOf(h)
	if err != nil {
		t.Fatal(err)
	}
	if door.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", door.Refs())
	}
	h2 := d.AdoptRef(r)
	if !d.SameDoor(h, h2) {
		t.Fatal("AdoptRef produced a different door")
	}
}

func TestInfoPauseCappedByDeadline(t *testing.T) {
	// A pause whose admit time lies past the call's remaining budget ends
	// at the deadline, with the deadline's error, not at the admit time.
	later := &RetryAt{At: time.Now().Add(time.Hour), Err: errors.New("refused")}
	info := &Info{Deadline: time.Now().Add(20 * time.Millisecond)}
	start := time.Now()
	if err := info.Pause(later); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Pause past the deadline = %v, want ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Pause until +1h under a 20ms deadline took %v", d)
	}
	// A pause within the budget waits it out and reports nothing.
	info = &Info{Deadline: time.Now().Add(time.Hour)}
	if err := info.Pause(ErrCommFailure); err != nil {
		t.Fatalf("Pause within the budget = %v", err)
	}
	var none *Info
	if err := none.Pause(ErrCommFailure); err != nil {
		t.Fatalf("Pause on a nil context = %v", err)
	}
}

func TestInfoPauseWakesOnCancel(t *testing.T) {
	later := &RetryAt{At: time.Now().Add(time.Hour), Err: errors.New("refused")}
	cancel := make(chan struct{})
	info := &Info{Cancel: cancel}
	time.AfterFunc(10*time.Millisecond, func() { close(cancel) })
	start := time.Now()
	if err := info.Pause(later); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Pause through a cancel = %v, want ErrCancelled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Pause until +1h cancelled after 10ms took %v", d)
	}
	// An already-cancelled context does not pause at all.
	if err := info.Pause(later); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Pause on a cancelled context = %v, want ErrCancelled", err)
	}
}

func TestInfoPauseReadsAdmitTime(t *testing.T) {
	// The wait is read off the failure: until a RetryAt's admit time, even
	// wrapped; retryPause for a failure with none, a zero At included.
	refused := errors.New("refused")
	in := func(d time.Duration) time.Time { return time.Now().Add(d) }
	for _, tc := range []struct {
		name     string
		err      func() error
		min, max time.Duration
	}{
		{"admit time", func() error { return &RetryAt{At: in(60 * time.Millisecond), Err: refused} }, 50 * time.Millisecond, 10 * time.Second},
		{"wrapped", func() error { return fmt.Errorf("call: %w", &RetryAt{At: in(60 * time.Millisecond), Err: refused}) }, 50 * time.Millisecond, 10 * time.Second},
		{"zero admit time", func() error { return &RetryAt{Err: refused} }, retryPause, 50 * time.Millisecond},
		{"no admit time", func() error { return ErrOverload }, retryPause, 50 * time.Millisecond},
	} {
		start := time.Now()
		if err := (&Info{}).Pause(tc.err()); err != nil {
			t.Fatalf("%s: Pause = %v", tc.name, err)
		}
		if d := time.Since(start); d < tc.min || d > tc.max {
			t.Fatalf("%s: paused %v, want %v..%v", tc.name, d, tc.min, tc.max)
		}
	}
	// The typed failure still classifies as a communications failure and
	// as the refusal it carries.
	if err := error(&RetryAt{Err: refused}); !errors.Is(err, ErrCommFailure) || !errors.Is(err, refused) {
		t.Fatalf("RetryAt unwraps to neither ErrCommFailure nor its Err: %v", err)
	}
}
