// Package replicon implements the replicon subcontract, the paper's
// simplest subcontract for supporting replication (§5).
//
// A set of server domains conspire to maintain the underlying state
// associated with an object; each server creates a kernel door to accept
// incoming calls on that state. The client possesses a set of door
// identifiers, one per replica. Clients talk to a single server at a time;
// the servers perform their own state synchronization. The invoke
// operation attempts each door identifier in turn: if an invocation fails
// due to a communications error the identifier is deleted from the target
// set and the next is tried. The invoke protocol also piggybacks
// subcontract control information in the call and reply buffers to support
// changes to the replica set.
//
// Wire layout, bracketing the stub-level payload:
//
//	call:  [client epoch u32] [opnum u32] [args...]
//	reply: [update u8 = 0]                            [status] [results]
//	       [update u8 = 1] [epoch u32] [n] [doors...] [status] [results]
package replicon

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/trace"
)

// SCID is the replicon subcontract identifier.
const SCID core.ID = 4

// LibraryName is the simulated dynamic-linker library name (§6.2). The
// paper uses exactly this example name when describing discovery.
const LibraryName = "replicon.so"

// ErrNoReplicas is returned when every replica has been found dead.
var ErrNoReplicas = errors.New("replicon: no live replicas")

// maxRounds bounds the consecutive retries of a kept replica (the last
// one, or one that shed the call) within one call.
const maxRounds = 20

// stats is the subcontract's metrics block, the one the base measures its
// calls into; Failovers counts replicas dropped from the target set
// mid-scan.
var stats = scstats.For("replicon")

// Trace event names: each replica death and re-attempt is marked by an
// event inside the replicon.invoke span the base opens around the
// failover scan.
var (
	spanFailoverEvent = trace.Name("replicon.failover")
	spanRetryEvent    = trace.Name("replicon.retry")
)

// Rep is a replicon object's representation: the ordered set of replica
// door identifiers plus the epoch of the replica set it reflects.
type Rep struct {
	mu    sync.Mutex
	hs    []kernel.Handle
	epoch uint32
}

// ops is the client-side operations vector.
type ops struct{}

// SC is the replicon subcontract.
var SC core.ClientOps = ops{}

// Register is the library entry point installing replicon in a registry.
func Register(r *core.Registry) error { return r.Register(SC) }

func (ops) ID() core.ID  { return SCID }
func (ops) Name() string { return "replicon" }

func rep(obj *core.Object) (*Rep, error) {
	r, ok := obj.Rep.(*Rep)
	if !ok {
		return nil, fmt.Errorf("replicon: foreign representation %T", obj.Rep)
	}
	return r, nil
}

// Marshal writes the count of door identifiers and then each identifier in
// turn (§5.1.1), consuming the object.
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
	buf.WriteUint32(r.epoch)
	buf.WriteUvarint(uint64(len(r.hs)))
	for _, h := range r.hs {
		if err := obj.Env.Domain.MoveToBuffer(h, buf); err != nil {
			return fmt.Errorf("replicon: marshal: %w", err)
		}
	}
	r.hs = nil
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
	buf.WriteUint32(r.epoch)
	buf.WriteUvarint(uint64(len(r.hs)))
	for _, h := range r.hs {
		if err := obj.Env.Domain.CopyToBuffer(h, buf); err != nil {
			return fmt.Errorf("replicon: marshal_copy: %w", err)
		}
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
	epoch, err := buf.ReadUint32()
	if err != nil {
		return nil, err
	}
	hs, err := adoptReplicas(env.Domain, buf)
	if err != nil {
		return nil, fmt.Errorf("replicon: unmarshal %w", err)
	}
	return core.NewObject(env, core.PickMTable(mt, actual), o, &Rep{hs: hs, epoch: epoch}), nil
}

// adoptReplicas reads a replica count and adopts that many doors from buf.
// On a failure partway it deletes the handles it had adopted.
func adoptReplicas(dom *kernel.Domain, buf *buffer.Buffer) ([]kernel.Handle, error) {
	n, err := buf.ReadCount(true)
	if err != nil {
		return nil, fmt.Errorf("replica count: %w", err)
	}
	hs := make([]kernel.Handle, 0, n)
	for i := 0; i < n; i++ {
		h, err := dom.AdoptFromBuffer(buf)
		if err != nil {
			for _, h := range hs {
				_ = dom.DeleteDoor(h)
			}
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		hs = append(hs, h)
	}
	return hs, nil
}

// InvokePreamble writes the client's replica-set epoch into the call
// buffer so the server can piggyback an update if the set has changed.
func (ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	r.mu.Lock()
	call.Args().WriteUint32(r.epoch)
	r.mu.Unlock()
	return nil
}

// Invoke tries each replica in turn and applies any replica-set update
// piggybacked on the reply. A failed replica is dropped and the next tried
// at once, unless it is the last or shed the call (kernel.ErrOverload):
// that one is kept and retried after a pause, at most maxRounds times, so
// a whole-set outage is ridden out. A door that is gone (kernel.ErrRevoked,
// kernel.ErrBadHandle) is dropped even when it is the last. The call's
// invocation context bounds the scan: once it ends, Invoke stops — the
// dead replicas found so far stay dropped.
func (ops) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	dom := obj.Env.Domain
	for rounds := 0; ; {
		r.mu.Lock()
		n := len(r.hs)
		if n == 0 {
			r.mu.Unlock()
			return nil, ErrNoReplicas
		}
		h := r.hs[0]
		r.mu.Unlock()

		reply, err := dom.CallInfo(h, call.Args(), call.Info())
		if err == nil {
			if err := r.applyUpdate(dom, reply); err != nil {
				kernel.ReleaseBufferDoors(reply)
				buffer.Put(reply)
				return nil, err
			}
			return reply, nil
		}
		if !core.Retryable(err) {
			return nil, err
		}
		gone := errors.Is(err, kernel.ErrRevoked) || errors.Is(err, kernel.ErrBadHandle)
		if !gone && (n == 1 || errors.Is(err, kernel.ErrOverload)) {
			if rounds++; rounds == maxRounds {
				return nil, err
			}
			if err := call.Info().Pause(err); err != nil {
				return nil, err
			}
		} else {
			stats.Failovers.Add(1)
			trace.Event(call.Info(), spanFailoverEvent)
			r.dropDead(dom, h)
			if err := call.Err(); err != nil {
				return nil, err
			}
		}
		stats.Retries.Add(1)
		trace.Event(call.Info(), spanRetryEvent)
	}
}

// dropDead deletes a dead replica's identifier from the target set.
func (r *Rep) dropDead(dom *kernel.Domain, h kernel.Handle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, cur := range r.hs {
		if cur == h {
			r.hs = append(r.hs[:i], r.hs[i+1:]...)
			// Ignore the error: a dead or already-moved handle is fine to drop.
			_ = dom.DeleteDoor(h)
			return
		}
	}
}

// applyUpdate consumes the reply's control section; on an update it adopts
// the new replica set and discards the old identifiers.
func (r *Rep) applyUpdate(dom *kernel.Domain, reply *buffer.Buffer) error {
	flag, err := reply.ReadByte()
	if err != nil {
		return fmt.Errorf("replicon: truncated reply control: %w", err)
	}
	if flag == 0 {
		return nil
	}
	epoch, err := reply.ReadUint32()
	if err != nil {
		return err
	}
	hs, err := adoptReplicas(dom, reply)
	if err != nil {
		return fmt.Errorf("replicon: adopting updated %w", err)
	}
	r.mu.Lock()
	old := r.hs
	r.hs = hs
	r.epoch = epoch
	r.mu.Unlock()
	for _, h := range old {
		_ = dom.DeleteDoor(h)
	}
	return nil
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
	hs := make([]kernel.Handle, 0, len(r.hs))
	for _, h := range r.hs {
		nh, err := obj.Env.Domain.CopyDoor(h)
		if err != nil {
			return nil, fmt.Errorf("replicon: copy: %w", err)
		}
		hs = append(hs, nh)
	}
	return core.NewObject(obj.Env, obj.MT, o, &Rep{hs: hs, epoch: r.epoch}), nil
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
	for _, h := range r.hs {
		_ = obj.Env.Domain.DeleteDoor(h)
	}
	r.hs = nil
	return obj.MarkConsumed()
}

// Replicas reports how many replica identifiers the object currently holds
// (observability for the failover experiments).
func Replicas(obj *core.Object) (int, error) {
	r, err := rep(obj)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.hs), nil
}

// Epoch reports the replica-set epoch the object currently reflects.
func Epoch(obj *core.Object) (uint32, error) {
	r, err := rep(obj)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, nil
}
