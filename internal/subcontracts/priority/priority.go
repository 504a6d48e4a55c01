// Package priority implements the priority subcontract sketched in the
// paper's future directions (§8.4): "a subcontract that transfers
// scheduling priority information between clients and servers for
// time-critical operations."
//
// The client-side invoke_preamble piggybacks the calling domain's current
// scheduling priority (an environment slot) as control information on each
// call; the server-side subcontract code queues the call on a dispatch
// engine at that priority, where work runs highest priority first across
// all its workers. Neither the stubs nor the application interfaces change
// — exactly the point of subcontract.
package priority

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/kernel"
	"repro/internal/stubs"
	"repro/internal/subcontracts/doorsc"
)

// SCID is the priority subcontract identifier.
const SCID core.ID = 8

// Var is the environment slot holding the calling domain's current
// priority (an int32; absent means 0).
const Var = "sched.priority"

// ops is the client-side vector: door-based, plus the priority preamble.
type ops struct {
	doorsc.Ops
}

// SC is the priority subcontract.
var SC core.ClientOps = func() *ops {
	o := &ops{Ops: doorsc.Ops{Ident: SCID, SCName: "priority"}}
	o.Outer = o // objects it fabricates keep the preamble
	return o
}()

// Register is the library entry point installing priority in a registry.
func Register(r *core.Registry) error { return r.Register(SC) }

// InvokePreamble writes the caller's priority into the call buffer before
// the stubs marshal the operation and arguments: the call buffer is the
// one place the priority travels (§5.1.4), locally and across machines
// alike, to the server-side executor that runs the call at it.
func (o *ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	call.Args().WriteInt32(CurrentPriority(obj.Env))
	return nil
}

// CurrentPriority reads the domain's scheduling priority slot.
func CurrentPriority(env *core.Env) int32 {
	if v, ok := env.Get(Var); ok {
		if p, ok := v.(int32); ok {
			return p
		}
	}
	return 0
}

// SetPriority sets the domain's scheduling priority slot.
func SetPriority(env *core.Env, p int32) { env.Set(Var, p) }

// Export creates a priority Spring object in env backed by skel, running
// incoming calls through exec at the priority each call carries.
func Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, exec *dispatch.Engine, unref func()) (*core.Object, *kernel.Door) {
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		prio, err := req.ReadInt32()
		if err != nil {
			return nil, fmt.Errorf("priority: missing priority control: %w", err)
		}
		var reply *buffer.Buffer
		var serveErr error
		if err := exec.Run(prio, func() {
			reply = buffer.Get(128) // holds the skeleton's results
			serveErr = stubs.ServeCallInfo(skel, req, reply, info)
		}); err != nil {
			return nil, err
		}
		if serveErr != nil {
			buffer.Put(reply)
			return nil, serveErr
		}
		return reply, nil
	}
	h, door := env.Domain.CreateDoorInfo(proc, unref)
	return core.NewObject(env, mt, SC, doorsc.Rep{H: h}), door
}
