// Package core implements the subcontract framework: the replaceable
// modules that are given control of the basic mechanisms of object
// invocation and argument passing (Hamilton, Powell & Mitchell, SOSP 1993).
//
// A Spring object is perceived by a client as consisting of three things:
// a method table (an entry per operation implied by the object's type), a
// subcontract operations vector (the ClientOps below), and some
// client-local private state, the object's representation. Stubs generated
// from IDL interfaces marshal arguments and delegate every transport
// decision — marshalling, unmarshalling, invocation, copying, deletion —
// to the object's subcontract. Application programmers need not be aware
// of the specific subcontracts in use; subcontract implementors provide a
// set of interesting policies that object implementors select from.
//
// The package also implements the framework conventions of §6: compatible
// subcontracts (a subcontract identifier is part of the marshalled form of
// each object, and unmarshal code peeks at it before dispatching), the
// per-domain subcontract registry, and the discovery of new subcontracts
// at run time through a simulated dynamic linker (see Loader).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/trace"
)

// ID is a subcontract identifier. It is included in the marshalled form of
// every object so the receiving side can locate compatible subcontract
// code. ID 0 is reserved to mark nil object references.
type ID uint32

// NilID marks a nil object reference in a marshalled stream.
const NilID ID = 0

// OpNum numbers the operations of an interface, in method-table order.
type OpNum uint32

// TypeID names an IDL interface type, e.g. "spring.file".
type TypeID string

// Errors returned by the framework.
var (
	// ErrConsumed is returned when operating on an object whose local
	// state was already deleted (by marshal or consume).
	ErrConsumed = errors.New("core: object already consumed")
	// ErrUnknownSubcontract is returned when no subcontract with the
	// marshalled identifier is registered and discovery fails.
	ErrUnknownSubcontract = errors.New("core: unknown subcontract")
	// ErrWrongSubcontract is returned by a subcontract's unmarshal when
	// handed a buffer for a different subcontract without registry help.
	ErrWrongSubcontract = errors.New("core: marshalled form belongs to another subcontract")
	// ErrNilObject is returned when a non-nil object was required.
	ErrNilObject = errors.New("core: nil object reference")
	// ErrBadType is returned for operations on unregistered types.
	ErrBadType = errors.New("core: unregistered type")
)

// MTable is a method table: the per-type description that stubs plug
// together with a subcontract operations vector and a representation to
// form an object. Ops lists the operation names in opnum order; DefaultSC
// is the subcontract conventionally used when talking to this type (§6.1:
// "for each type we can specify a default subcontract").
type MTable struct {
	Type      TypeID
	DefaultSC ID
	Ops       []string
}

// Object is a Spring object as held by a client: method table, subcontract
// operations vector, and representation, plus the environment (domain,
// registry) the object lives in.
type Object struct {
	MT  *MTable
	SC  ClientOps
	Rep any
	Env *Env

	consumed atomic.Bool
	meter    atomic.Pointer[meter]
}

// NewObject plugs together a method table, subcontract ops vector, and
// representation into an object, as a subcontract's unmarshal or server
// creation code does.
func NewObject(env *Env, mt *MTable, sc ClientOps, rep any) *Object {
	return &Object{MT: mt, SC: sc, Rep: rep, Env: env}
}

// meter is what the base measures an object's invocations with: the
// metrics block and the "<name>.invoke" span name of its subcontract.
type meter struct {
	stats *scstats.Stats
	span  trace.NameID
}

// meters holds one meter per subcontract name, shared by every object of
// that subcontract.
var meters sync.Map // string -> *meter

// getMeter returns the object's meter, looked up by SC.Name() on the
// object's first call and kept on the object, so no call after the first
// consults a table.
func (o *Object) getMeter() *meter {
	if m := o.meter.Load(); m != nil {
		return m
	}
	return o.lookupMeter()
}

func (o *Object) lookupMeter() *meter {
	name := o.SC.Name()
	v, ok := meters.Load(name)
	if !ok {
		v, _ = meters.LoadOrStore(name, &meter{stats: scstats.For(name), span: trace.Name(name + ".invoke")})
	}
	m := v.(*meter)
	o.meter.Store(m)
	return m
}

// Stats returns the metrics block the object's invocations report into:
// its subcontract's, interned under SC.Name().
func (o *Object) Stats() *scstats.Stats { return o.getMeter().stats }

// Invoke hands a marshalled call to the object's subcontract — the one
// point where the base measures an invocation, so no subcontract meters
// itself. The call is counted and its latency recorded, keyed by op, in
// the subcontract's metrics block, a failure is classified there, and a
// traced call runs under a "<name>.invoke" span that parents whatever the
// subcontract and the server record beneath it.
func (o *Object) Invoke(call *Call) (*buffer.Buffer, error) {
	m := o.getMeter()
	start := m.stats.Begin()
	var sp trace.Span
	if call.info.Trace != 0 {
		sp = trace.Begin(&call.info, m.span)
	}
	reply, err := o.SC.Invoke(o, call)
	sp.End(&call.info, err)
	m.stats.EndCall(start, uint32(call.Op), call.info.ExemplarTrace(), err)
	return reply, err
}

// Consumed reports whether the object's local state has been deleted.
func (o *Object) Consumed() bool { return o.consumed.Load() }

// MarkConsumed flags the object as dead. Subcontract marshal and consume
// implementations call this after deleting the local state; it returns
// ErrConsumed if the object was already dead, making double-consume and
// use-after-marshal programming errors detectable.
func (o *Object) MarkConsumed() error {
	if !o.consumed.CompareAndSwap(false, true) {
		return ErrConsumed
	}
	return nil
}

// CheckLive returns ErrConsumed if the object's state is gone.
func (o *Object) CheckLive() error {
	if o.consumed.Load() {
		return ErrConsumed
	}
	return nil
}

// Marshal transmits the object into buf via its subcontract, deleting the
// local state (move semantics, §5.1.1).
func (o *Object) Marshal(buf *buffer.Buffer) error {
	if o == nil {
		WriteNil(buf)
		return nil
	}
	return o.SC.Marshal(o, buf)
}

// MarshalCopy produces the effect of a copy followed by a marshal, leaving
// the original usable (§5.1.5).
func (o *Object) MarshalCopy(buf *buffer.Buffer) error {
	if o == nil {
		WriteNil(buf)
		return nil
	}
	return o.SC.MarshalCopy(o, buf)
}

// Copy produces a shallow copy through the subcontract copy operation.
func (o *Object) Copy() (*Object, error) {
	if o == nil {
		return nil, nil
	}
	return o.SC.Copy(o)
}

// Consume deletes the object via its subcontract (§7: the consume method).
func (o *Object) Consume() error {
	if o == nil {
		return nil
	}
	return o.SC.Consume(o)
}

// Is reports whether the object's dynamic type is target or a subtype of
// it (the run-time type query of §5.1.6 / narrowing of §6.3).
func (o *Object) Is(target TypeID) bool {
	if o == nil {
		return false
	}
	return IsA(o.MT.Type, target)
}

// String implements fmt.Stringer for diagnostics.
func (o *Object) String() string {
	if o == nil {
		return "Object(nil)"
	}
	return fmt.Sprintf("Object{%s via %s}", o.MT.Type, o.SC.Name())
}

// Call carries the per-invocation state threaded from invoke_preamble
// through argument marshalling to invoke (§5.1.3–§5.1.4). The preamble may
// write subcontract-level control information into the buffer, or replace
// the buffer entirely to influence future marshalling (as the
// shared-memory subcontracts do).
//
// Beyond the operation number and argument buffer, a call carries an
// invocation context (kernel.Info): a deadline, a cancellation channel,
// and a trace identifier, set through CallOptions. The context is policy,
// not data — stubs stay semantics-free; subcontracts consult it (bounding
// failover scans, re-resolve loops and network waits) and the kernel
// refuses to dispatch a call whose context has already ended.
type Call struct {
	Op   OpNum
	args *buffer.Buffer
	// Release, if set by the subcontract, is invoked by the stub layer
	// after the reply has been fully unmarshalled, so the subcontract can
	// recycle call resources (e.g. return a shared region to its pool).
	Release func()

	info kernel.Info
}

// CallOption configures a Call at creation.
type CallOption func(*Call)

// WithDeadline sets the absolute time after which the call fails with
// ErrDeadlineExceeded. Every layer inherits it: stubs fail fast, retrying
// subcontracts bound their scans, and the network door servers ship the
// remaining budget to the server machine.
func WithDeadline(t time.Time) CallOption {
	return func(c *Call) { c.info.Deadline = t }
}

// WithTimeout is WithDeadline(now+d): a relative budget for the call.
func WithTimeout(d time.Duration) CallOption {
	return func(c *Call) { c.info.Deadline = time.Now().Add(d) }
}

// WithCancel attaches a cancellation channel: closing it makes the call
// fail with ErrCancelled instead of running (or, across the network,
// abandons the in-flight wait).
func WithCancel(ch <-chan struct{}) CallOption {
	return func(c *Call) { c.info.Cancel = ch }
}

// WithTrace attaches an opaque trace identifier, propagated unchanged to
// the server side (0 means untraced).
func WithTrace(id uint64) CallOption {
	return func(c *Call) { c.info.Trace = id }
}

// WithTraceContext continues the trace carried by an existing invocation
// context: a server making downstream calls on behalf of a traced request
// passes the kernel.Info its skeleton received, and the downstream spans
// nest under the server-side span current at call creation. A nil or
// untraced info leaves the call untraced (subject to head sampling).
func WithTraceContext(info *kernel.Info) CallOption {
	return func(c *Call) {
		if info == nil || info.Trace == 0 {
			return
		}
		c.info.Trace = info.Trace
		c.info.Span = info.Span
		c.info.Parent = info.Parent
	}
}

// NewCall prepares a call on operation op with a fresh argument buffer
// and the invocation context described by opts.
//
// The pre-context form NewCall(op) remains valid — generated stubs that
// predate invocation contexts migrate mechanically, getting a call with
// no deadline, no cancellation and no trace.
//
// NewCall is also where head-based trace sampling happens: a call that
// the options left untraced consults trace.MaybeHead, so when sampling is
// enabled (-trace-sample) every 1-in-n outermost call becomes the root of
// a new distributed trace. With sampling off this costs one atomic load,
// and a call head sampling declined is not traced at all.
func NewCall(op OpNum, opts ...CallOption) *Call {
	c := &Call{Op: op}
	for _, o := range opts {
		o(c)
	}
	if c.info.Trace == 0 {
		c.info.Trace = trace.MaybeHead()
	}
	return c
}

// Args returns the buffer arguments are marshalled into, drawn lazily
// from the buffer pool — a call that never marshals (a context probe, a
// preamble that substitutes its own buffer) never allocates one. The
// stub layer recycles it when the call completes.
func (c *Call) Args() *buffer.Buffer {
	if c.args == nil {
		c.args = buffer.Get(64)
	}
	return c.args
}

// SetArgs replaces the argument buffer (invoke_preamble's privilege).
func (c *Call) SetArgs(b *buffer.Buffer) { c.args = b }

// Info returns the call's invocation context in the kernel's form, for
// handing to Domain.CallInfo.
func (c *Call) Info() *kernel.Info { return &c.info }

// Err reports whether the call's context has already ended:
// ErrCancelled, ErrDeadlineExceeded, or nil. Subcontract retry loops
// check it between attempts.
func (c *Call) Err() error { return c.info.Err() }

// Deadline returns the call's deadline; ok is false when none is set.
func (c *Call) Deadline() (time.Time, bool) {
	return c.info.Deadline, !c.info.Deadline.IsZero()
}

// Remaining returns the budget left before the deadline; ok is false when
// no deadline is set.
func (c *Call) Remaining() (time.Duration, bool) { return c.info.Remaining() }

// Trace returns the call's trace identifier (0 when untraced).
func (c *Call) Trace() uint64 { return c.info.Trace }

// Span returns the call's current span identifier (0 when untraced or no
// instrumented hop has opened a span yet).
func (c *Call) Span() uint64 { return c.info.Span }

// Subcontract is the registry's view of a subcontract: identity plus the
// ability to fabricate an object from a marshalled form. A subcontract's
// unmarshal operation reads the identifier and representation from the
// buffer and plugs together its own operations vector, the method table,
// and the new representation (§5.1.2).
type Subcontract interface {
	// ID returns the subcontract identifier included in marshalled forms.
	ID() ID
	// Name returns the human-readable subcontract name ("simplex", ...).
	Name() string
	// Unmarshal fabricates a fully fledged object from buf. mt is the
	// initial method table chosen by the stubs from the expected type;
	// implementations may substitute a richer table when the marshalled
	// type is a known subtype.
	Unmarshal(env *Env, mt *MTable, buf *buffer.Buffer) (*Object, error)
}

// ClientOps is the client-side subcontract operations vector (§5.1).
type ClientOps interface {
	Subcontract

	// Marshal places enough information in buf for an essentially
	// identical object to be unmarshalled in another domain, then deletes
	// all local state of obj.
	Marshal(obj *Object, buf *buffer.Buffer) error
	// MarshalCopy produces the effect of a copy followed by a marshal,
	// optimizing out the intermediate object.
	MarshalCopy(obj *Object, buf *buffer.Buffer) error
	// InvokePreamble is called before any argument marshalling has begun,
	// so the subcontract can write control information or adjust the
	// communications buffer.
	InvokePreamble(obj *Object, call *Call) error
	// Invoke executes the call after the stubs have marshalled all
	// arguments, returning the result buffer (with any subcontract-level
	// reply control information already consumed). The stubs reach it
	// through Object.Invoke, which measures it.
	Invoke(obj *Object, call *Call) (*buffer.Buffer, error)
	// Copy produces a shallow copy: a distinct object designating the
	// same underlying state.
	Copy(obj *Object) (*Object, error)
	// Consume deletes the object and releases its resources.
	Consume(obj *Object) error
}

// WriteNil marks a nil object reference in buf.
func WriteNil(buf *buffer.Buffer) {
	buf.WriteUint32(uint32(NilID))
}

// WriteHeader writes the standard marshalled-object header: the
// subcontract identifier (the compatible-subcontract convention of §6.1)
// followed by the object's dynamic type.
func WriteHeader(buf *buffer.Buffer, sc ID, typ TypeID) {
	buf.WriteUint32(uint32(sc))
	buf.WriteString(string(typ))
}

// ReadHeader consumes a marshalled-object header previously verified (by
// peeking) to carry subcontract identifier want. It returns the dynamic
// type recorded by the marshalling side.
func ReadHeader(buf *buffer.Buffer, want ID) (TypeID, error) {
	id, err := buf.ReadUint32()
	if err != nil {
		return "", err
	}
	if ID(id) != want {
		return "", fmt.Errorf("%w: have %d, want %d", ErrWrongSubcontract, id, want)
	}
	t, err := buf.ReadString()
	if err != nil {
		return "", err
	}
	return TypeID(t), nil
}

// PickMTable selects the method table for a received object: the table
// registered for the marshalled dynamic type if the receiving program
// knows it (and it is a subtype of the expected type), otherwise the
// initial table the stubs chose from the expected type.
func PickMTable(expected *MTable, actual TypeID) *MTable {
	if actual == "" || actual == expected.Type {
		return expected
	}
	if mt, ok := LookupMTable(actual); ok && IsA(actual, expected.Type) {
		return mt
	}
	return expected
}

// Unmarshal reads an object of the expected method table's type from buf,
// implementing the receiving half of the compatible-subcontract protocol:
// peek at the subcontract identifier, locate the right subcontract code
// through the domain's registry (discovering and "dynamically linking" new
// subcontracts as needed), and let it perform the unmarshalling.
//
// A nil object reference unmarshals to (nil, nil).
func Unmarshal(env *Env, expected *MTable, buf *buffer.Buffer) (*Object, error) {
	raw, err := buf.PeekUint32()
	if err != nil {
		return nil, err
	}
	if ID(raw) == NilID {
		_, _ = buf.ReadUint32()
		return nil, nil
	}
	sc, err := env.Registry.Lookup(ID(raw))
	if err != nil {
		return nil, err
	}
	return sc.Unmarshal(env, expected, buf)
}

// RedispatchUnmarshal implements the first step every subcontract unmarshal
// performs (§6.1): peek at the subcontract identifier in buf. If it is the
// caller's own identifier, handled is false and the caller proceeds to
// unmarshal the representation itself. Otherwise the identifier designates
// a nil reference or a different — compatible — subcontract, which is
// located through the registry (dynamically linking its library if
// necessary) and asked to perform the unmarshalling; handled is true and
// obj/err are the final result.
func RedispatchUnmarshal(env *Env, mt *MTable, buf *buffer.Buffer, self ID) (obj *Object, handled bool, err error) {
	raw, err := buf.PeekUint32()
	if err != nil {
		return nil, true, err
	}
	switch ID(raw) {
	case self:
		return nil, false, nil
	case NilID:
		_, _ = buf.ReadUint32()
		return nil, true, nil
	}
	sc, err := env.Registry.Lookup(ID(raw))
	if err != nil {
		return nil, true, err
	}
	obj, err = sc.Unmarshal(env, mt, buf)
	return obj, true, err
}

// Env is the per-domain environment that objects live in: the domain (for
// door operations), the domain's subcontract registry, and named
// environment slots that subcontracts consult (for example the caching
// subcontract resolves its machine-local cache-manager context here).
type Env struct {
	Domain   *kernel.Domain
	Registry *Registry

	mu   sync.Mutex
	vars map[string]any
}

// NewEnv creates an environment for dom with an empty registry.
func NewEnv(dom *kernel.Domain) *Env {
	return &Env{Domain: dom, Registry: NewRegistry(), vars: make(map[string]any)}
}

// Set stores a named environment slot.
func (e *Env) Set(key string, v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.vars[key] = v
}

// Get fetches a named environment slot.
func (e *Env) Get(key string) (any, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.vars[key]
	return v, ok
}
