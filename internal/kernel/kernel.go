// Package kernel emulates the Spring kernel's door IPC mechanism.
//
// A door is a communication endpoint, analogous to a Mach port, to which
// threads may execute cross-address-space calls. A domain (an address space
// plus a collection of threads) that creates a door receives a door
// identifier, which it can pass to other domains so they can issue calls to
// the associated door. Door identifiers function as software capabilities:
// only the legitimate holder of a door identifier may issue a call on its
// door. The kernel manages all operations on doors and door identifiers —
// construction, destruction, copying, and transmission — and notifies a
// door's target when the last outstanding identifier is deleted.
//
// The paper ran on real address spaces separated by the MMU; here domains
// are logical address spaces inside one process. Everything subcontract
// depends on — unforgeable handles, kernel-mediated transfer, refcounted
// copy/delete, revocation, unreferenced notification — is implemented with
// the same observable semantics. The threading model is also the doors
// model: a door call runs the server procedure on the calling thread
// (goroutine), the "thread shuttling" that makes Spring door IPC fast;
// servers needing their own scheduling hand calls to an executor (see the
// priority subcontract).
//
// The invocation path is lock-free (E16): a door's reference count and
// revocation flag are atomics, its target and unreferenced callback are
// immutable after creation, and a domain's handle table is a dense
// atomically-published slice indexed by handle — so Ref.Dup, Ref.Release
// and a door call touch no mutex. Handle-table writers (install, delete,
// move) serialize on the domain mutex, which is off the call path.
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
)

// Errors returned by door operations.
var (
	// ErrBadHandle is returned when a door identifier is not present in the
	// calling domain's handle table (forged, deleted, or moved away).
	ErrBadHandle = errors.New("kernel: invalid door identifier")
	// ErrRevoked is returned when calling a door whose server has revoked it.
	ErrRevoked = errors.New("kernel: door revoked")
	// ErrNotADoor is returned when a buffer door slot holds something other
	// than a kernel door reference (for example an unresolved network form).
	ErrNotADoor = errors.New("kernel: buffer slot does not hold a kernel door reference")
	// ErrCommFailure classifies communications failures below the door
	// level (the network door servers wrap their transport errors with
	// it). Subcontracts that retry on communications errors — replicon,
	// reconnectable — test for this class alongside ErrRevoked and
	// ErrBadHandle.
	ErrCommFailure = errors.New("kernel: communication failure")
	// ErrOverload is returned when a server refuses a call at admission:
	// its dispatch engine's in-flight bound is reached and the call was
	// shed immediately instead of queueing without bound. The call never
	// executed, so the class is retry-safe (core.Retryable) — back off
	// and try again, or fail over to a replica.
	ErrOverload = errors.New("kernel: server overloaded")
)

// RetryAt is a communications failure that says when a retry can first
// succeed: the layer that refused the call admits none before At (a
// network door server's open circuit breaker, until its next probe). A
// zero At says no time is known. It unwraps to ErrCommFailure and to Err,
// and (*Info).Pause reads At off it.
type RetryAt struct {
	At  time.Time
	Err error
}

func (e *RetryAt) Error() string   { return ErrCommFailure.Error() + ": " + e.Err.Error() }
func (e *RetryAt) Unwrap() []error { return []error{ErrCommFailure, e.Err} }

// Handle is a door identifier as seen by one domain: an unforgeable,
// domain-local capability name (compare a Unix file descriptor). Handle 0 is
// never valid.
type Handle uint64

// ServerProc is the target of a door: the server procedure run when a
// thread calls the door. It receives the (kernel-transferred) argument
// buffer and returns a reply buffer. Targets that want the invocation
// context (deadline, cancellation, trace) use ServerProcInfo and
// CreateDoorInfo instead.
type ServerProc func(req *buffer.Buffer) (*buffer.Buffer, error)

// door is the kernel-side door object. target, unref, owner and id are
// written once at creation, before the first reference is published, and
// never again — so the call path reads them without synchronization. The
// reference count and revocation flag are the only mutable fields and are
// atomics.
type door struct {
	owner   *Kernel
	target  ServerProcInfo
	unref   func()
	id      uint64 // kernel-wide unique, for diagnostics
	refs    atomic.Int64
	revoked atomic.Bool
}

// Ref is a kernel-level door reference: the form a door identifier takes
// while in flight inside a communication buffer, detached from any domain's
// handle table. A Ref owns one reference count on the door.
type Ref struct {
	d *door
}

// Valid reports whether r refers to a door.
func (r Ref) Valid() bool { return r.d != nil }

// SameDoor reports whether two refs designate the same underlying door.
func (r Ref) SameDoor(o Ref) bool { return r.d != nil && r.d == o.d }

// DoorID returns a kernel-wide unique identity for the underlying door
// (0 for an invalid ref). The network door servers key their export tables
// on it, and the cache manager its entry index.
func (r Ref) DoorID() uint64 {
	if r.d == nil {
		return 0
	}
	return r.d.id
}

// Dup creates an additional reference to the same door. One atomic add;
// no lock.
func (r Ref) Dup() Ref {
	if r.d == nil {
		return Ref{}
	}
	r.d.refs.Add(1)
	return Ref{d: r.d}
}

// Release drops the reference. When the last reference to a door is
// released the kernel delivers the unreferenced notification to the door's
// target (asynchronously, as the Spring kernel does). Exactly one releaser
// observes the count reach zero, so the notification fires exactly once;
// delivery goes through the kernel's single dispatch goroutine, so a mass
// release does not burst one goroutine per door.
func (r Ref) Release() {
	if r.d == nil {
		return
	}
	if r.d.refs.Add(-1) == 0 {
		r.d.owner.noteUnreferenced(r.d)
	}
}

// call invokes the door's target, failing if the door has been revoked.
func (r Ref) call(req *buffer.Buffer) (*buffer.Buffer, error) {
	return r.callInfo(req, nil)
}

// callInfo invokes the door's target with an invocation context. An
// already-ended context (expired deadline, closed cancellation channel)
// fails the call before the target runs, so a dead caller never occupies
// the server. The path is one atomic flag load plus the context check; no
// mutex.
func (r Ref) callInfo(req *buffer.Buffer, info *Info) (*buffer.Buffer, error) {
	d := r.d
	if d == nil {
		return nil, ErrBadHandle
	}
	if d.revoked.Load() {
		return nil, ErrRevoked
	}
	if err := info.Err(); err != nil {
		return nil, err
	}
	return d.target(req, info)
}

// Kernel is one machine's door kernel. Distinct Kernel values model
// distinct machines; doors never cross kernels except through the network
// door servers (package netd).
type Kernel struct {
	name      string
	nextID    atomic.Uint64
	liveDoors atomic.Int64
	mu        sync.Mutex
	domains   []*Domain

	// Unreferenced-notification dispatch: last releases enqueue the door's
	// callback here and a single kernel-owned goroutine drains the queue in
	// FIFO order, starting on demand and exiting when idle. This bounds a
	// mass release (a lease reclaim dropping thousands of references) to
	// one goroutine instead of one per door.
	unrefMu      sync.Mutex
	unrefQueue   []func()
	unrefRunning bool
}

// LiveDoors reports the number of door objects currently alive on this
// kernel (created and not yet unreferenced) — the resource the cluster
// subcontract economizes (§8.1).
func (k *Kernel) LiveDoors() int64 { return k.liveDoors.Load() }

// New creates a kernel (a machine).
func New(name string) *Kernel {
	return &Kernel{name: name}
}

// Name returns the machine name given at creation.
func (k *Kernel) Name() string { return k.name }

// noteUnreferenced accounts a door's death and schedules its unreferenced
// notification on the kernel's dispatch goroutine.
func (k *Kernel) noteUnreferenced(d *door) {
	k.liveDoors.Add(-1)
	if d.unref == nil {
		return
	}
	k.unrefMu.Lock()
	k.unrefQueue = append(k.unrefQueue, d.unref)
	if !k.unrefRunning {
		k.unrefRunning = true
		go k.drainUnrefs()
	}
	k.unrefMu.Unlock()
}

// drainUnrefs runs queued unreferenced notifications in FIFO order until
// the queue empties, then exits. At most one instance runs per kernel.
func (k *Kernel) drainUnrefs() {
	for {
		k.unrefMu.Lock()
		if len(k.unrefQueue) == 0 {
			k.unrefRunning = false
			k.unrefMu.Unlock()
			return
		}
		batch := k.unrefQueue
		k.unrefQueue = nil
		k.unrefMu.Unlock()
		for _, fn := range batch {
			fn()
		}
	}
}

// NewDomain creates a domain (address space) on this kernel.
func (k *Kernel) NewDomain(name string) *Domain {
	d := &Domain{
		kernel: k,
		name:   name,
	}
	d.table.Store(&[]atomic.Pointer[door]{})
	k.mu.Lock()
	k.domains = append(k.domains, d)
	k.mu.Unlock()
	return d
}

// Domain is an address space plus a collection of threads. Each domain has
// a private door-identifier table; handles are meaningless outside their
// domain.
//
// The handle table is a dense slice indexed by handle (handles are
// allocated sequentially from 1 and never reused), published through an
// atomic pointer. Lookups — the door-call hot path — are two atomic loads
// and a bounds check; installs, deletes and growth serialize on mu. A
// reader that raced a concurrent delete may briefly see the old slice, in
// which case its call linearizes just before the delete, exactly as a call
// that won a lock race would have.
type Domain struct {
	kernel *Kernel
	name   string

	mu    sync.Mutex // serializes handle-table writers
	table atomic.Pointer[[]atomic.Pointer[door]]
	next  atomic.Uint64 // last allocated handle
	live  atomic.Int64  // live identifiers, for HandleCount
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// Kernel returns the kernel (machine) this domain runs on.
func (d *Domain) Kernel() *Kernel { return d.kernel }

// Door is the server-side view of a door, returned at creation. The
// creating server uses it to revoke the door.
type Door struct {
	d *door
}

// Revoke revokes the door: all future calls on any identifier for it fail
// with ErrRevoked. Revocation is how a server discards state without
// waiting for all clients to consent.
func (dr *Door) Revoke() {
	dr.d.revoked.Store(true)
}

// Revoked reports whether the door has been revoked.
func (dr *Door) Revoked() bool {
	return dr.d.revoked.Load()
}

// Refs reports the current number of outstanding identifiers (handles plus
// in-flight buffer references) for the door.
func (dr *Door) Refs() int {
	return int(dr.d.refs.Load())
}

// CreateDoor creates a door targeted at proc and installs one identifier
// for it in d's handle table. unref, if non-nil, is called (on the
// kernel's notification dispatch goroutine) when the last identifier for
// the door is deleted. The target does not see the invocation context;
// use CreateDoorInfo for targets that propagate deadlines and traces
// onward.
func (d *Domain) CreateDoor(proc ServerProc, unref func()) (Handle, *Door) {
	return d.CreateDoorInfo(func(req *buffer.Buffer, _ *Info) (*buffer.Buffer, error) {
		return proc(req)
	}, unref)
}

// install assigns a fresh handle for ref. The ref's count was already
// accounted for by the caller.
func (d *Domain) install(r Ref) Handle {
	d.mu.Lock()
	h := Handle(d.next.Add(1))
	t := *d.table.Load()
	if int(h) > len(t) {
		grown := make([]atomic.Pointer[door], max(len(t)*2, 16))
		for i := range t {
			grown[i].Store(t[i].Load())
		}
		d.table.Store(&grown)
		t = grown
	}
	t[h-1].Store(r.d)
	d.live.Add(1)
	d.mu.Unlock()
	return h
}

// lookup returns the ref for h without transferring it. Lock-free: this
// is the first half of every door call.
func (d *Domain) lookup(h Handle) (Ref, error) {
	t := *d.table.Load()
	if h == 0 || int(h) > len(t) {
		return Ref{}, fmt.Errorf("%w: %s handle %d", ErrBadHandle, d.name, h)
	}
	dd := t[h-1].Load()
	if dd == nil {
		return Ref{}, fmt.Errorf("%w: %s handle %d", ErrBadHandle, d.name, h)
	}
	return Ref{d: dd}, nil
}

// remove deletes h from the table, returning the ref it held. The caller
// inherits the ref's reference count.
func (d *Domain) remove(h Handle) (Ref, bool) {
	d.mu.Lock()
	t := *d.table.Load()
	if h == 0 || int(h) > len(t) {
		d.mu.Unlock()
		return Ref{}, false
	}
	dd := t[h-1].Load()
	if dd == nil {
		d.mu.Unlock()
		return Ref{}, false
	}
	t[h-1].Store(nil)
	d.live.Add(-1)
	d.mu.Unlock()
	return Ref{d: dd}, true
}

// Call issues a door call on identifier h, transferring req to the door's
// target and returning the reply. The caller loses ownership of req's door
// references that the server adopts; the server loses ownership of the
// reply's door references to the caller. Context-carrying callers use
// CallInfo.
func (d *Domain) Call(h Handle, req *buffer.Buffer) (*buffer.Buffer, error) {
	r, err := d.lookup(h)
	if err != nil {
		return nil, err
	}
	return r.call(req)
}

// CopyDoor creates a second identifier for the same door (a shallow copy of
// the capability, as the simplex copy operation does).
func (d *Domain) CopyDoor(h Handle) (Handle, error) {
	r, err := d.lookup(h)
	if err != nil {
		return 0, err
	}
	return d.install(r.Dup()), nil
}

// DeleteDoor deletes identifier h, releasing its reference. When the last
// identifier for a door is deleted the kernel notifies the door's target.
func (d *Domain) DeleteDoor(h Handle) error {
	r, ok := d.remove(h)
	if !ok {
		return fmt.Errorf("%w: %s handle %d", ErrBadHandle, d.name, h)
	}
	r.Release()
	return nil
}

// RevokeHandle revokes the door designated by h. Only meaningful for the
// door's server, which also holds the *Door; provided for symmetry in
// server-side subcontract code that retains only a handle.
func (d *Domain) RevokeHandle(h Handle) error {
	r, err := d.lookup(h)
	if err != nil {
		return err
	}
	r.d.revoked.Store(true)
	return nil
}

// MoveToBuffer transfers identifier h out of d's handle table into buf
// (move semantics: the sending domain ceases to have the identifier, as
// marshal requires).
func (d *Domain) MoveToBuffer(h Handle, buf *buffer.Buffer) error {
	r, ok := d.remove(h)
	if !ok {
		return fmt.Errorf("%w: %s handle %d", ErrBadHandle, d.name, h)
	}
	buf.WriteDoor(r)
	return nil
}

// CopyToBuffer writes an additional identifier for h's door into buf,
// leaving h in place (used by marshal_copy and the copy parameter mode).
func (d *Domain) CopyToBuffer(h Handle, buf *buffer.Buffer) error {
	r, err := d.lookup(h)
	if err != nil {
		return err
	}
	buf.WriteDoor(r.Dup())
	return nil
}

// AdoptFromBuffer consumes the next door reference from buf and installs it
// in d's handle table, returning the new identifier.
func (d *Domain) AdoptFromBuffer(buf *buffer.Buffer) (Handle, error) {
	slot, err := buf.ReadDoor()
	if err != nil {
		return 0, err
	}
	r, ok := slot.(Ref)
	if !ok {
		return 0, fmt.Errorf("%w: %T", ErrNotADoor, slot)
	}
	return d.install(r), nil
}

// AdoptRef installs an in-flight reference directly (used by the network
// door servers when fabricating proxy doors).
func (d *Domain) AdoptRef(r Ref) Handle {
	return d.install(r)
}

// RefOf returns a new reference to h's door, leaving h in place.
func (d *Domain) RefOf(h Handle) (Ref, error) {
	r, err := d.lookup(h)
	if err != nil {
		return Ref{}, err
	}
	return r.Dup(), nil
}

// HandleCount reports the number of identifiers in the domain's table
// (resource accounting for the cluster-vs-simplex experiment).
func (d *Domain) HandleCount() int {
	return int(d.live.Load())
}

// SameDoor reports whether two identifiers designate the same door.
func (d *Domain) SameDoor(a, b Handle) bool {
	ra, err1 := d.lookup(a)
	rb, err2 := d.lookup(b)
	return err1 == nil && err2 == nil && ra.SameDoor(rb)
}

// ReleaseBufferDoors releases all door references still held by buf. Call
// it when discarding a buffer that may carry unconsumed identifiers, so the
// doors' reference counts are not leaked.
func ReleaseBufferDoors(buf *buffer.Buffer) {
	if buf == nil {
		return
	}
	for _, slot := range buf.TakeDoors() {
		if r, ok := slot.(Ref); ok {
			r.Release()
		}
	}
}
