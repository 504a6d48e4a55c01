package kernel

import (
	"errors"
	"time"

	"repro/internal/buffer"
)

// Invocation-context errors. These are the canonical values for the whole
// system: package core re-exports them (core.ErrDeadlineExceeded,
// core.ErrCancelled) so subcontract and application code can test with
// errors.Is at either layer. Neither error is retry-safe — a subcontract
// that retries communications failures must give up when it sees one of
// these (see core.Retryable).
var (
	// ErrDeadlineExceeded is returned when a door call's deadline passed
	// before the call could complete (or before it was even dispatched).
	ErrDeadlineExceeded = errors.New("kernel: call deadline exceeded")
	// ErrCancelled is returned when the caller abandoned the call through
	// its cancellation channel.
	ErrCancelled = errors.New("kernel: call cancelled")
)

// Info is the invocation context that rides alongside the argument buffer
// on every door call: the policy-carrying half of a call, as opposed to
// the data-carrying buffer. The kernel checks it before dispatching to a
// door's target and hands it to targets that accept it, so deadlines,
// cancellation and trace identity propagate from client stubs through
// subcontracts and kernel doors to server skeletons — and, through the
// network door servers' wire header, across machines with the remaining
// budget intact.
//
// A nil *Info and a zero Info both mean "no context": no deadline, no
// cancellation, no trace. All methods are nil-receiver safe.
type Info struct {
	// Deadline is the absolute time after which the call must fail with
	// ErrDeadlineExceeded. The zero time means no deadline.
	Deadline time.Time
	// Cancel, when non-nil, is closed by the caller to abandon the call;
	// the call then fails with ErrCancelled.
	Cancel <-chan struct{}
	// Trace is the trace identifier naming the end-to-end call tree,
	// propagated unchanged end to end (0 means untraced).
	Trace uint64
	// Span is the identifier of the innermost open span of the trace at
	// this point of the call path: each instrumented hop (subcontract
	// invoke, netd send, server skeleton) pushes a fresh span here on
	// entry so the hops it encloses become its children, and restores the
	// previous value on exit (see internal/trace.Begin/End). Parent is
	// that span's own parent. Both cross the netd wire with Trace, so a
	// server-side span nests under the client-side span that carried it
	// there. Meaningless when Trace is 0.
	Span   uint64
	Parent uint64
	// Spec marks Trace as a speculative tail-capture trace: head sampling
	// declined this call, but a slow threshold is configured, so the trace
	// layer buffers its spans on the side and commits them to the slow
	// ring only if the root span exceeds the threshold (internal/trace
	// tail capture). Speculative traces are a local bet — the network door
	// servers do not propagate them over the wire, and exemplar recording
	// skips them (most are abandoned). Meaningless when Trace is 0.
	Spec bool
}

// Err reports whether the context has already ended: ErrCancelled if the
// cancellation channel is closed (checked first, like context.Context),
// ErrDeadlineExceeded if the deadline has passed, nil otherwise.
func (in *Info) Err() error {
	if in == nil {
		return nil
	}
	if in.Cancel != nil {
		select {
		case <-in.Cancel:
			return ErrCancelled
		default:
		}
	}
	if !in.Deadline.IsZero() && !time.Now().Before(in.Deadline) {
		return ErrDeadlineExceeded
	}
	return nil
}

// ExemplarTrace returns the trace ID to attach to metric exemplars: the
// call's trace when it is a real (head-sampled or wire-propagated) trace,
// 0 when untraced or speculative — a speculative trace is usually
// abandoned and would leave the exemplar dangling.
func (in *Info) ExemplarTrace() uint64 {
	if in == nil || in.Spec {
		return 0
	}
	return in.Trace
}

// Remaining returns the budget left before the deadline. ok is false when
// no deadline is set; a non-positive duration means the deadline has
// already passed.
func (in *Info) Remaining() (time.Duration, bool) {
	if in == nil || in.Deadline.IsZero() {
		return 0, false
	}
	return time.Until(in.Deadline), true
}

// Sleep pauses for d, but no longer than the remaining budget, and wakes
// at once on cancellation: the pause between a subcontract's retries. It
// returns the context's error if the context ended before or during the
// pause.
func (in *Info) Sleep(d time.Duration) error {
	if err := in.Err(); err != nil {
		return err
	}
	if rem, ok := in.Remaining(); ok && rem < d {
		d = rem
	}
	if in == nil || in.Cancel == nil {
		time.Sleep(d)
		return in.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-in.Cancel:
		return ErrCancelled
	case <-t.C:
		return in.Err()
	}
}

// ServerProcInfo is a door target that receives the invocation context
// along with the argument buffer. info may be nil (a context-free caller);
// Info's methods tolerate that.
type ServerProcInfo func(req *buffer.Buffer, info *Info) (*buffer.Buffer, error)

// CreateDoorInfo creates a door whose target receives the invocation
// context. It is otherwise identical to CreateDoor.
func (d *Domain) CreateDoorInfo(proc ServerProcInfo, unref func()) (Handle, *Door) {
	dd := &door{
		owner:  d.kernel,
		target: proc,
		unref:  unref,
		id:     d.kernel.nextID.Add(1),
	}
	dd.refs.Store(1)
	d.kernel.liveDoors.Add(1)
	h := d.install(Ref{d: dd})
	return h, &Door{d: dd}
}

// CallInfo issues a door call carrying an invocation context: the kernel
// fails the call without dispatching if the context has already ended, and
// otherwise delivers the context to the door's target (so network door
// servers can forward the remaining budget, and server-side subcontract
// code can inherit it). info may be nil, making CallInfo(h, req, nil)
// equivalent to Call(h, req).
func (d *Domain) CallInfo(h Handle, req *buffer.Buffer, info *Info) (*buffer.Buffer, error) {
	r, err := d.lookup(h)
	if err != nil {
		return nil, err
	}
	return r.callInfo(req, info)
}
