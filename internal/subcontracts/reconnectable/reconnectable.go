// Package reconnectable implements the reconnectable subcontract of §8.3.
//
// Some servers keep their state in stable storage; clients would like
// objects backed by such servers to quietly recover from server crashes.
// Normal door identifiers become invalid when a server crashes, so the
// reconnectable subcontract uses a representation consisting of a normal
// door identifier plus an object name. Invoke normally just performs a
// kernel door invocation; if that fails it resolves the object name to
// obtain a new object and retries the operation on that, retrying
// periodically until it succeeds in getting a new valid object.
package reconnectable

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/subcontracts/doorsc"
	"repro/internal/subcontracts/singleton"
	"repro/internal/trace"
)

// SCID is the reconnectable subcontract identifier.
const SCID core.ID = 6

// ContextVar is the environment slot where a domain stores the naming
// Context (a *core.Object of type spring.naming_context) that object names
// resolve in.
const ContextVar = "naming.default"

// PolicyVar is the environment slot for an optional *Policy override.
const PolicyVar = "reconnectable.policy"

// Policy controls reconnection retries.
type Policy struct {
	// MaxAttempts bounds resolution attempts before giving up.
	MaxAttempts int
	// Backoff is slept between failed resolution attempts.
	Backoff time.Duration
}

// defaultPolicy is used when a domain sets no PolicyVar.
var defaultPolicy = Policy{MaxAttempts: 20, Backoff: 5 * time.Millisecond}

// Errors returned by the subcontract.
var (
	// ErrNoContext is returned when the domain has no naming context to
	// resolve object names in.
	ErrNoContext = errors.New("reconnectable: no naming context in environment")
	// ErrGaveUp is returned when reconnection attempts are exhausted.
	ErrGaveUp = errors.New("reconnectable: could not obtain a valid object")
	// ErrBadTarget is returned when the name resolves to an object whose
	// subcontract the reconnectable client cannot take a door from.
	ErrBadTarget = errors.New("reconnectable: resolved object is not door-based")
)

// stats is the subcontract's metrics block: calls, reconnects, and the
// deadline endings that bound the re-resolve loop.
var stats = scstats.For("reconnectable")

// Trace span/event names: the invoke span wraps the whole recovery loop,
// and each reconnect/retry action surfaces as a zero-duration event inside
// it, so a trace shows exactly where the binding broke and was rebuilt.
var (
	spanInvoke     = trace.Name("reconnectable.invoke")
	spanReconnect  = trace.Name("reconnectable.reconnect")
	spanRetryEvent = trace.Name("reconnectable.retry")
)

// Rep is the representation: a normal door identifier plus an object name.
type Rep struct {
	mu   sync.Mutex
	h    kernel.Handle
	name string
}

type ops struct{}

// SC is the reconnectable subcontract.
var SC core.ClientOps = ops{}

// Register is the library entry point installing reconnectable in a
// registry.
func Register(r *core.Registry) error { return r.Register(SC) }

func (ops) ID() core.ID  { return SCID }
func (ops) Name() string { return "reconnectable" }

func rep(obj *core.Object) (*Rep, error) {
	r, ok := obj.Rep.(*Rep)
	if !ok {
		return nil, fmt.Errorf("reconnectable: foreign representation %T", obj.Rep)
	}
	return r, nil
}

func (ops) Marshal(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	core.WriteHeader(buf, SCID, obj.MT.Type)
	buf.WriteString(r.name)
	if err := obj.Env.Domain.MoveToBuffer(r.h, buf); err != nil {
		return fmt.Errorf("reconnectable: marshal: %w", err)
	}
	r.h = 0
	return obj.MarkConsumed()
}

func (ops) MarshalCopy(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	core.WriteHeader(buf, SCID, obj.MT.Type)
	buf.WriteString(r.name)
	if err := obj.Env.Domain.CopyToBuffer(r.h, buf); err != nil {
		return fmt.Errorf("reconnectable: marshal_copy: %w", err)
	}
	return nil
}

func (o ops) Unmarshal(env *core.Env, mt *core.MTable, buf *buffer.Buffer) (*core.Object, error) {
	if obj, handled, err := core.RedispatchUnmarshal(env, mt, buf, SCID); handled {
		return obj, err
	}
	actual, err := core.ReadHeader(buf, SCID)
	if err != nil {
		return nil, err
	}
	name, err := buf.ReadString()
	if err != nil {
		return nil, err
	}
	h, err := env.Domain.AdoptFromBuffer(buf)
	if err != nil {
		return nil, fmt.Errorf("reconnectable: unmarshal: %w", err)
	}
	return core.NewObject(env, core.PickMTable(mt, actual), o, &Rep{h: h, name: name}), nil
}

func (ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	return obj.CheckLive()
}

// Invoke performs a normal kernel door invocation; on a communications
// failure it re-resolves the object name and retries on the new object.
// The whole recovery loop — door calls, resolutions, backoff sleeps — is
// bounded by the call's deadline and cancellation: once the context ends,
// Invoke stops immediately with core.ErrDeadlineExceeded/ErrCancelled
// instead of burning the remaining resolution attempts.
func (ops) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	begin := stats.Begin()
	sp := trace.Begin(call.Info(), spanInvoke)
	reply, err := invoke(obj, call)
	sp.End(call.Info(), err)
	stats.EndCall(begin, uint32(call.Op), call.Info().ExemplarTrace(), err)
	return reply, err
}

func invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	dom := obj.Env.Domain
	for {
		r.mu.Lock()
		h := r.h
		r.mu.Unlock()

		reply, err := dom.CallInfo(h, call.Args(), call.Info())
		if err == nil || !core.Retryable(err) {
			return reply, err
		}
		stats.Reconnects.Add(1)
		trace.Event(call.Info(), spanReconnect)
		if err := reconnect(obj, r, h, call.Info()); err != nil {
			return nil, err
		}
		if err := call.Err(); err != nil {
			// The context ended while we were reconnecting: don't issue
			// another call on borrowed time.
			return nil, err
		}
		stats.Retries.Add(1)
		trace.Event(call.Info(), spanRetryEvent)
	}
}

// reconnect resolves the object name to obtain a new door, replacing the
// dead identifier stale. Concurrent invokes racing through a crash
// coordinate on the rep: whoever swaps first wins, later callers see the
// fresh handle and skip their own resolution. The resolution loop checks
// info between attempts and sleeps no longer than the remaining budget.
func reconnect(obj *core.Object, r *Rep, stale kernel.Handle, info *kernel.Info) error {
	r.mu.Lock()
	if r.h != stale {
		// Another thread already reconnected.
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()

	ctxAny, ok := obj.Env.Get(ContextVar)
	if !ok {
		return ErrNoContext
	}
	ctxObj, ok := ctxAny.(*core.Object)
	if !ok {
		return fmt.Errorf("%w: environment slot holds %T", ErrNoContext, ctxAny)
	}
	ctx := naming.Context{Obj: ctxObj}

	pol := defaultPolicy
	if p, ok := obj.Env.Get(PolicyVar); ok {
		if pp, ok := p.(*Policy); ok {
			pol = *pp
		}
	}

	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := info.Sleep(pol.Backoff); err != nil {
				return err
			}
		}
		if err := info.Err(); err != nil {
			return err
		}
		fresh, err := ctx.Resolve(r.name, obj.MT)
		if err != nil {
			lastErr = err
			continue
		}
		h, err := takeDoor(fresh)
		if err != nil {
			return err
		}
		// Probe nothing: install and let the retried call find out. A
		// freshly bound but already dead door just loops us back here.
		r.mu.Lock()
		if r.h == stale {
			old := r.h
			r.h = h
			r.mu.Unlock()
			_ = obj.Env.Domain.DeleteDoor(old)
		} else {
			// Lost the race; discard our door.
			r.mu.Unlock()
			_ = obj.Env.Domain.DeleteDoor(h)
		}
		return nil
	}
	return fmt.Errorf("%w: %q after %d attempts: %v", ErrGaveUp, r.name, pol.MaxAttempts, lastErr)
}

// takeDoor extracts the door identifier from a freshly resolved object,
// consuming the wrapper. The paper's reconnectable expects the name to
// resolve to a normal (door-based) object.
func takeDoor(fresh *core.Object) (kernel.Handle, error) {
	if fresh == nil {
		return 0, fmt.Errorf("%w: nil", ErrBadTarget)
	}
	switch rep := fresh.Rep.(type) {
	case doorsc.Rep:
		// Mark the wrapper consumed; its sole door identifier now belongs
		// to the reconnectable rep.
		if err := fresh.MarkConsumed(); err != nil {
			return 0, err
		}
		return rep.H, nil
	case *Rep:
		rep.mu.Lock()
		h := rep.h
		rep.h = 0
		rep.mu.Unlock()
		if err := fresh.MarkConsumed(); err != nil {
			return 0, err
		}
		return h, nil
	default:
		err := fresh.Consume()
		if err != nil {
			return 0, fmt.Errorf("%w: %T (consume: %v)", ErrBadTarget, fresh.Rep, err)
		}
		return 0, fmt.Errorf("%w: %T", ErrBadTarget, fresh.Rep)
	}
}

func (o ops) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, err := obj.Env.Domain.CopyDoor(r.h)
	if err != nil {
		return nil, fmt.Errorf("reconnectable: copy: %w", err)
	}
	return core.NewObject(obj.Env, obj.MT, o, &Rep{h: h, name: r.name}), nil
}

func (ops) Consume(obj *core.Object) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.h != 0 {
		_ = obj.Env.Domain.DeleteDoor(r.h)
		r.h = 0
	}
	return obj.MarkConsumed()
}

// Export creates a reconnectable object backed by skel, binding a plain
// (singleton) object under name in ctx so clients can re-resolve it. A
// server that restarts calls Export again with the same name to rebind.
func Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, name string, ctx naming.Context) (*core.Object, *kernel.Door, error) {
	plain, door := singleton.Export(env, mt, skel, nil)
	// Keep an identifier for the reconnectable object before the plain
	// object (and its identifier) moves into the naming context.
	keep, err := plain.Copy()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Bind(name, plain, true); err != nil {
		_ = keep.Consume()
		return nil, nil, fmt.Errorf("reconnectable: binding %q: %w", name, err)
	}
	h, err := takeDoor(keep)
	if err != nil {
		return nil, nil, err
	}
	return core.NewObject(env, mt, SC, &Rep{h: h, name: name}), door, nil
}
