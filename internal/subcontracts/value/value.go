// Package value implements a pass-by-value subcontract: the marshalled
// form of an object is its actual state, not a name or door identifier.
//
// §2.1 of the paper contrasts reference-style marshalling (Eden names,
// Spring doors) with transmitting an object's real state, noting that for
// "lightweight abstractions, such as an object representing a cartesian
// coordinate pair ... it would have been better to marshal the real state
// of the object". And §3.2 notes that "Spring also supports objects which
// are not server-based". The value subcontract is both: objects carry
// their state with them, invocations run entirely in the holding domain,
// and no kernel doors — no server — exist at all.
//
// Semantics differ from the server-based subcontracts where the paper
// permits them to (§6.3, "subcontracts affect objects' semantics"): copy
// produces an independent object with its own state, so copies diverge —
// value semantics, exactly what a coordinate pair wants.
//
// Behaviour comes from a Handler registered per type, compiled into the
// programs that use the type — like stubs, value-type behaviour is static
// knowledge; only the state travels.
package value

import (
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/trace"
)

// SCID is the value subcontract identifier.
const SCID core.ID = 11

// Handler implements a value type's operations over its marshalled state.
type Handler interface {
	// Dispatch runs one operation: it may read args, write results, and
	// return the updated state (return state unchanged for read-only
	// operations). Returning an error raises a remote-style exception at
	// the caller.
	Dispatch(state []byte, op core.OpNum, args, results *buffer.Buffer) ([]byte, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(state []byte, op core.OpNum, args, results *buffer.Buffer) ([]byte, error)

// Dispatch implements Handler.
func (f HandlerFunc) Dispatch(state []byte, op core.OpNum, args, results *buffer.Buffer) ([]byte, error) {
	return f(state, op, args, results)
}

// handlers is the process-wide behaviour registry, keyed by type: value
// behaviour is compile-time knowledge, like the type graph.
var handlers = struct {
	sync.RWMutex
	m map[core.TypeID]Handler
}{m: make(map[core.TypeID]Handler)}

// RegisterHandler publishes the behaviour for a value type.
func RegisterHandler(t core.TypeID, h Handler) {
	handlers.Lock()
	defer handlers.Unlock()
	handlers.m[t] = h
}

func handlerFor(t core.TypeID) (Handler, error) {
	handlers.RLock()
	defer handlers.RUnlock()
	h, ok := handlers.m[t]
	if !ok {
		return nil, fmt.Errorf("value: no handler registered for type %q", t)
	}
	return h, nil
}

// Rep is the representation: the object's actual state.
type Rep struct {
	mu    sync.Mutex
	state []byte
}

type ops struct{}

// SC is the value subcontract.
var SC core.ClientOps = ops{}

// Register is the library entry point installing value in a registry.
func Register(r *core.Registry) error { return r.Register(SC) }

func (ops) ID() core.ID  { return SCID }
func (ops) Name() string { return "value" }

// stats is the subcontract's metrics block.
var stats = scstats.For("value")

func rep(obj *core.Object) (*Rep, error) {
	r, ok := obj.Rep.(*Rep)
	if !ok {
		return nil, fmt.Errorf("value: foreign representation %T", obj.Rep)
	}
	return r, nil
}

// Marshal transmits the object's real state (and nothing else — no door
// identifiers travel), consuming the local object.
func (ops) Marshal(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	r.mu.Lock()
	core.WriteHeader(buf, SCID, obj.MT.Type)
	buf.WriteBytes(r.state)
	r.state = nil
	r.mu.Unlock()
	return obj.MarkConsumed()
}

// MarshalCopy transmits a snapshot of the state; the original is retained.
func (ops) MarshalCopy(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	r.mu.Lock()
	core.WriteHeader(buf, SCID, obj.MT.Type)
	buf.WriteBytes(r.state)
	r.mu.Unlock()
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
	p, err := buf.ReadBytes()
	if err != nil {
		return nil, err
	}
	state := append([]byte(nil), p...)
	return core.NewObject(env, core.PickMTable(mt, actual), o, &Rep{state: state}), nil
}

func (ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	return obj.CheckLive()
}

// Invoke runs the operation against the local state through the type's
// registered handler — no communication happens at all. Deadlines and
// cancellation still apply at the boundary: an already-ended context
// fails before the handler runs (there is nothing to interrupt once a
// local dispatch has started).
func (ops) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	begin := stats.Begin()
	sp := trace.Begin(call.Info(), spanInvoke)
	reply, err := invoke(obj, call)
	sp.End(call.Info(), err)
	stats.EndCall(begin, uint32(call.Op), call.Info().ExemplarTrace(), err)
	return reply, err
}

var spanInvoke = trace.Name("value.invoke")

func invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := call.Err(); err != nil {
		return nil, err
	}
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	h, err := handlerFor(obj.MT.Type)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	skel := stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		next, err := h.Dispatch(r.state, op, args, results)
		if err != nil {
			return err
		}
		r.state = next
		return nil
	})
	reply := buffer.Get(64) // holds the results of a call on the local copy
	if err := stubs.ServeCallInfo(skel, call.Args(), reply, call.Info()); err != nil {
		buffer.Put(reply)
		return nil, err
	}
	return reply, nil
}

// Copy produces an independent object with its own copy of the state:
// value semantics, so copies diverge.
func (o ops) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	state := append([]byte(nil), r.state...)
	r.mu.Unlock()
	return core.NewObject(obj.Env, obj.MT, o, &Rep{state: state}), nil
}

// Consume drops the state.
func (ops) Consume(obj *core.Object) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.state = nil
	r.mu.Unlock()
	return obj.MarkConsumed()
}

// New fabricates a value object with the given initial state. There is no
// Export: value objects have no server side.
func New(env *core.Env, mt *core.MTable, state []byte) *core.Object {
	return core.NewObject(env, mt, SC, &Rep{state: append([]byte(nil), state...)})
}

// State returns a snapshot of the object's current state.
func State(obj *core.Object) ([]byte, error) {
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.state...), nil
}
