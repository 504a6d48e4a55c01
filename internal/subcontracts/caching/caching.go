// Package caching implements the caching subcontract of §8.2.
//
// When a server is on a different machine from its clients it is often
// useful to perform caching on the client machines. The representation of
// a caching object includes a door identifier D1 pointing to the server, a
// door identifier D2 pointing to a local cache, and the name of a cache
// manager. When a caching object is transmitted between machines only D1
// and the cache manager name travel; the unmarshal code resolves the cache
// manager name in a machine-local naming context, presents D1 to the local
// cache manager, and receives a new D2. Every invoke then goes through D2,
// so all invocations on a cacheable object go to an appropriate cache
// manager on the local machine.
//
// This is the subcontract the paper calls out as deliberately profligate
// at unmarshal time to win at invoke time (§9.3). The invoke-time win is
// only as good as the cache manager behind D2: internal/cache serves hits
// lock-free of any manager-wide state, bounds each entry's reply cache
// with an LRU byte budget, and coalesces concurrent misses for one key
// into a single server call (the E16 experiment measures this path).
package caching

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/stubs"
	"repro/internal/subcontracts/doorsc"
)

// SCID is the caching subcontract identifier.
const SCID core.ID = 5

// LocalContextVar is the environment slot holding the machine-local naming
// context (a *core.Object) in which cache manager names resolve.
const LocalContextVar = "naming.local"

// ErrNoLocalContext is returned when unmarshalling a caching object in a
// domain with no machine-local naming context configured.
var ErrNoLocalContext = errors.New("caching: no machine-local naming context in environment")

// Rep is the representation: server door D1, cache door D2, the cache
// manager name, and the operation sets that travel with the object.
type Rep struct {
	D1         kernel.Handle
	D2         kernel.Handle // 0 when serving locally (no cache in front)
	Manager    string
	Cacheable  cache.OpSet
	Invalidate cache.OpSet
}

type ops struct{}

// SC is the caching subcontract.
var SC core.ClientOps = ops{}

// Register is the library entry point installing caching in a registry.
func Register(r *core.Registry) error { return r.Register(SC) }

func (ops) ID() core.ID  { return SCID }
func (ops) Name() string { return "caching" }

func rep(obj *core.Object) (Rep, error) {
	r, ok := obj.Rep.(Rep)
	if !ok {
		return Rep{}, fmt.Errorf("caching: foreign representation %T", obj.Rep)
	}
	return r, nil
}

func writeRep(buf *buffer.Buffer, r Rep) {
	buf.WriteString(r.Manager)
	r.Cacheable.MarshalTo(buf)
	r.Invalidate.MarshalTo(buf)
}

// Marshal transmits only D1 and the cache manager name (plus the masks);
// D2 is machine-local and is discarded with the rest of the local state.
func (ops) Marshal(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	core.WriteHeader(buf, SCID, obj.MT.Type)
	writeRep(buf, r)
	if err := obj.Env.Domain.MoveToBuffer(r.D1, buf); err != nil {
		return fmt.Errorf("caching: marshal: %w", err)
	}
	if r.D2 != 0 {
		_ = obj.Env.Domain.DeleteDoor(r.D2)
	}
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
	core.WriteHeader(buf, SCID, obj.MT.Type)
	writeRep(buf, r)
	if err := obj.Env.Domain.CopyToBuffer(r.D1, buf); err != nil {
		return fmt.Errorf("caching: marshal_copy: %w", err)
	}
	return nil
}

// Unmarshal adopts D1, resolves the cache manager name in the machine-
// local naming context, presents D1, and receives D2 (§8.2; Figure 5).
// This is the subcontract's deliberate unmarshal-time overhead.
func (o ops) Unmarshal(env *core.Env, mt *core.MTable, buf *buffer.Buffer) (*core.Object, error) {
	if obj, handled, err := core.RedispatchUnmarshal(env, mt, buf, SCID); handled {
		return obj, err
	}
	actual, err := core.ReadHeader(buf, SCID)
	if err != nil {
		return nil, err
	}
	r := Rep{}
	if r.Manager, err = buf.ReadString(); err != nil {
		return nil, err
	}
	if r.Cacheable, err = cache.ReadOpSet(buf); err != nil {
		return nil, err
	}
	if r.Invalidate, err = cache.ReadOpSet(buf); err != nil {
		return nil, err
	}
	if r.D1, err = env.Domain.AdoptFromBuffer(buf); err != nil {
		return nil, fmt.Errorf("caching: unmarshal: %w", err)
	}

	mgr, err := localManager(env, r.Manager)
	if err != nil {
		_ = env.Domain.DeleteDoor(r.D1)
		return nil, err
	}
	r.D2, err = mgr.Register(r.D1, r.Cacheable, r.Invalidate)
	consumeQuietly(mgr.Obj)
	if err != nil {
		_ = env.Domain.DeleteDoor(r.D1)
		return nil, fmt.Errorf("caching: registering with manager %q: %w", r.Manager, err)
	}
	return core.NewObject(env, core.PickMTable(mt, actual), o, r), nil
}

// localManager resolves the named cache manager in the domain's machine-
// local context.
func localManager(env *core.Env, name string) (cache.Client, error) {
	ctxAny, ok := env.Get(LocalContextVar)
	if !ok {
		return cache.Client{}, ErrNoLocalContext
	}
	ctxObj, ok := ctxAny.(*core.Object)
	if !ok {
		return cache.Client{}, fmt.Errorf("%w: slot holds %T", ErrNoLocalContext, ctxAny)
	}
	mgrObj, err := naming.Context{Obj: ctxObj}.Resolve(name, cache.ManagerMT)
	if err != nil {
		return cache.Client{}, fmt.Errorf("caching: resolving manager %q: %w", name, err)
	}
	return cache.Client{Obj: mgrObj}, nil
}

func consumeQuietly(obj *core.Object) {
	if obj != nil {
		_ = obj.Consume()
	}
}

func (ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	return obj.CheckLive()
}

// Invoke uses the D2 door identifier, so the call reaches the local cache
// manager (or the server directly for a locally exported object).
func (ops) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	h := r.D2
	if h == 0 {
		h = r.D1
	}
	return obj.Env.Domain.CallInfo(h, call.Args(), call.Info())
}

func (o ops) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	nr := r
	if nr.D1, err = obj.Env.Domain.CopyDoor(r.D1); err != nil {
		return nil, fmt.Errorf("caching: copy: %w", err)
	}
	if r.D2 != 0 {
		if nr.D2, err = obj.Env.Domain.CopyDoor(r.D2); err != nil {
			_ = obj.Env.Domain.DeleteDoor(nr.D1)
			return nil, fmt.Errorf("caching: copy: %w", err)
		}
	}
	return core.NewObject(obj.Env, obj.MT, o, nr), nil
}

func (ops) Consume(obj *core.Object) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	_ = obj.Env.Domain.DeleteDoor(r.D1)
	if r.D2 != 0 {
		_ = obj.Env.Domain.DeleteDoor(r.D2)
	}
	return obj.MarkConsumed()
}

// Export creates a caching Spring object in env backed by skel. manager is
// the machine-local cache manager name receivers will resolve; cacheable
// and invalidate are opnum bitmasks describing the interface's read-only
// and mutating operations. Locally the object talks straight to its own
// door (D2 = 0); caches appear as the object travels to other machines.
func Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, manager string, cacheable, invalidate cache.OpSet, unref func()) (*core.Object, *kernel.Door) {
	h, door := env.Domain.CreateDoorInfo(doorsc.ServerProcTyped(mt.Type, skel), unref)
	r := Rep{D1: h, Manager: manager, Cacheable: cacheable, Invalidate: invalidate}
	return core.NewObject(env, mt, SC, r), door
}
