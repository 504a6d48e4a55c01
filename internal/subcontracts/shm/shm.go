// Package shm implements a shared-buffer subcontract demonstrating the
// purpose of invoke_preamble (§5.1.4): "we have some subcontracts that use
// shared memory regions to communicate with their servers. In this case
// when invoke_preamble is called, the subcontract can adjust the
// communications buffer to point into the shared memory region so that
// arguments are directly marshalled into the region, rather than having to
// be copied there after all marshalling is complete."
//
// Domains here share one address space, so a "shared memory region" is a
// pooled buffer (drawn from a buffer.RegionPool, the same segment
// machinery behind netd's same-machine bulk tier) handed to the server
// without copying. The subcontract
// supports two modes so the optimization is measurable (experiment E9):
//
//   - Direct: invoke_preamble swaps the call's buffer for a pooled region;
//     the stubs marshal straight into it and invoke passes it through.
//   - CopyAfter: the baseline the paper describes — arguments are
//     marshalled into an ordinary buffer and copied into the region after
//     all marshalling is complete.
package shm

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/subcontracts/doorsc"
	"repro/internal/trace"
)

// SCID is the shared-buffer subcontract identifier.
const SCID core.ID = 7

// Mode selects whether the preamble optimization is active.
type Mode int

// Modes.
const (
	// Direct marshals arguments straight into the shared region.
	Direct Mode = iota
	// CopyAfter marshals into a private buffer and copies into the
	// region after marshalling, as systems without invoke_preamble must.
	CopyAfter
)

// regionSize is the capacity of pooled regions; large enough that typical
// calls never reallocate (reallocation would defeat the point).
const regionSize = 64 << 10

// SC is a shared-buffer subcontract instance. Distinct instances may run
// in different modes but share the wire identity SCID.
type SC struct {
	mode Mode
	pool *buffer.RegionPool
}

// New creates a shared-buffer subcontract in the given mode.
func New(mode Mode) *SC {
	return &SC{mode: mode, pool: buffer.NewRegionPool(regionSize)}
}

// Register installs s in a registry (the library entry point).
func (s *SC) Register(r *core.Registry) error { return r.Register(s) }

// ID implements core.Subcontract.
func (s *SC) ID() core.ID { return SCID }

// Name implements core.Subcontract.
func (s *SC) Name() string { return "shm" }

// stats is the subcontract's metrics block, shared by the shm modes (they
// are one subcontract family with one name).
var stats = scstats.For("shm")

func rep(obj *core.Object) (doorsc.Rep, error) {
	r, ok := obj.Rep.(doorsc.Rep)
	if !ok {
		return doorsc.Rep{}, fmt.Errorf("shm: foreign representation %T", obj.Rep)
	}
	return r, nil
}

// Marshal behaves like the plain door subcontracts; the shared region is
// per-call state, not per-object state.
func (s *SC) Marshal(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	core.WriteHeader(buf, SCID, obj.MT.Type)
	if err := obj.Env.Domain.MoveToBuffer(r.H, buf); err != nil {
		return fmt.Errorf("shm: marshal: %w", err)
	}
	return obj.MarkConsumed()
}

// MarshalCopy writes a duplicated identifier, leaving the original usable.
func (s *SC) MarshalCopy(obj *core.Object, buf *buffer.Buffer) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	core.WriteHeader(buf, SCID, obj.MT.Type)
	if err := obj.Env.Domain.CopyToBuffer(r.H, buf); err != nil {
		return fmt.Errorf("shm: marshal_copy: %w", err)
	}
	return nil
}

// Unmarshal fabricates an object using this subcontract instance.
func (s *SC) Unmarshal(env *core.Env, mt *core.MTable, buf *buffer.Buffer) (*core.Object, error) {
	if obj, handled, err := core.RedispatchUnmarshal(env, mt, buf, SCID); handled {
		return obj, err
	}
	actual, err := core.ReadHeader(buf, SCID)
	if err != nil {
		return nil, err
	}
	h, err := env.Domain.AdoptFromBuffer(buf)
	if err != nil {
		return nil, fmt.Errorf("shm: unmarshal: %w", err)
	}
	return core.NewObject(env, core.PickMTable(mt, actual), s, doorsc.Rep{H: h}), nil
}

// InvokePreamble is where the optimization lives: in Direct mode the call
// buffer is replaced with a pooled region before any argument marshalling
// has begun, and the stub layer's Release hook returns it to the pool.
func (s *SC) InvokePreamble(obj *core.Object, call *core.Call) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	if s.mode != Direct {
		return nil
	}
	region := s.pool.Get()
	call.SetArgs(region)
	call.Release = func() { buffer.Put(region) }
	return nil
}

// Invoke executes the door call. In CopyAfter mode the fully marshalled
// arguments are first copied into a region, modelling the extra copy the
// preamble avoids.
func (s *SC) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	st := stats
	begin := st.Begin()
	sp := trace.Begin(call.Info(), spanInvoke)
	reply, err := s.invoke(obj, call)
	sp.End(call.Info(), err)
	st.EndCall(begin, uint32(call.Op), call.Info().ExemplarTrace(), err)
	return reply, err
}

var spanInvoke = trace.Name("shm.invoke")

func (s *SC) invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	args := call.Args()
	if s.mode == CopyAfter {
		region := s.pool.Get()
		region.Splice(args) // copies the byte stream, transfers the doors
		defer buffer.Put(region)
		return obj.Env.Domain.CallInfo(r.H, region, call.Info())
	}
	return obj.Env.Domain.CallInfo(r.H, args, call.Info())
}

// Copy duplicates the door identifier.
func (s *SC) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	h, err := obj.Env.Domain.CopyDoor(r.H)
	if err != nil {
		return nil, fmt.Errorf("shm: copy: %w", err)
	}
	return core.NewObject(obj.Env, obj.MT, s, doorsc.Rep{H: h}), nil
}

// Consume deletes the door identifier.
func (s *SC) Consume(obj *core.Object) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	if err := obj.Env.Domain.DeleteDoor(r.H); err != nil {
		return fmt.Errorf("shm: consume: %w", err)
	}
	return obj.MarkConsumed()
}

// Export creates a shared-buffer Spring object in env backed by skel.
func (s *SC) Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, unref func()) (*core.Object, *kernel.Door) {
	h, door := env.Domain.CreateDoorInfo(doorsc.ServerProc(skel), unref)
	return core.NewObject(env, mt, s, doorsc.Rep{H: h}), door
}
