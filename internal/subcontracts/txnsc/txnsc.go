// Package txnsc implements the transaction subcontract sketched in §8.4:
// it transfers control information for atomic transactions at the
// subcontract level.
//
// A client domain sets its current transaction in an environment slot; the
// invoke_preamble piggybacks the transaction identifier on every call. The
// server-side subcontract code strips it, transparently enlists the server
// as a participant with the shared coordinator, and hands the identifier
// to the transactional skeleton. Neither the stubs nor the IDL interfaces
// mention transactions at all.
package txnsc

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stubs"
	"repro/internal/subcontracts/doorsc"
	"repro/internal/txn"
)

// SCID is the transaction subcontract identifier.
const SCID core.ID = 9

// Var is the environment slot holding the domain's current *txn.Txn.
const Var = "txn.current"

// ops is the client-side vector: door-based plus the transaction preamble.
type ops struct {
	doorsc.Ops
}

// SC is the transaction subcontract.
var SC core.ClientOps = func() *ops {
	o := &ops{Ops: doorsc.Ops{Ident: SCID, SCName: "txn"}}
	o.Outer = o // objects it fabricates keep the preamble
	return o
}()

// Register is the library entry point installing the subcontract.
func Register(r *core.Registry) error { return r.Register(SC) }

// InvokePreamble piggybacks the current transaction identifier (0 when the
// caller is not in a transaction).
func (o *ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	call.Args().WriteUint64(uint64(Current(obj.Env)))
	return nil
}

// Current returns the calling domain's current transaction id (0 if none).
func Current(env *core.Env) txn.ID {
	if v, ok := env.Get(Var); ok {
		if t, ok := v.(*txn.Txn); ok && t != nil {
			return t.ID()
		}
	}
	return 0
}

// With sets the domain's current transaction; Clear removes it.
func With(env *core.Env, t *txn.Txn) { env.Set(Var, t) }

// Clear removes the domain's current transaction.
func Clear(env *core.Env) { env.Set(Var, (*txn.Txn)(nil)) }

// Skeleton is a transaction-aware dispatch table: like stubs.Skeleton but
// each call carries the transaction it runs in (0 = none).
type Skeleton interface {
	DispatchTxn(id txn.ID, op core.OpNum, args, results *buffer.Buffer) error
}

// SkeletonFunc adapts a function to Skeleton.
type SkeletonFunc func(id txn.ID, op core.OpNum, args, results *buffer.Buffer) error

// DispatchTxn implements Skeleton.
func (f SkeletonFunc) DispatchTxn(id txn.ID, op core.OpNum, args, results *buffer.Buffer) error {
	return f(id, op, args, results)
}

// Export creates a transactional Spring object in env backed by skel. part
// is enlisted with coord the first time each transaction touches this
// server.
func Export(env *core.Env, mt *core.MTable, skel Skeleton, part txn.Participant, coord *txn.Coordinator, unref func()) (*core.Object, *kernel.Door) {
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		raw, err := req.ReadUint64()
		if err != nil {
			return nil, fmt.Errorf("txnsc: missing transaction control: %w", err)
		}
		id := txn.ID(raw)
		reply := buffer.Get(128) // holds the skeleton's results, or the exception that stands in for them
		if id != 0 {
			t, err := coord.Lookup(id)
			if err != nil {
				stubs.WriteException(reply, err.Error())
				return reply, nil
			}
			if err := t.Enlist(part); err != nil {
				stubs.WriteException(reply, err.Error())
				return reply, nil
			}
		}
		inner := stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
			return skel.DispatchTxn(id, op, args, results)
		})
		if err := stubs.ServeCallInfo(inner, req, reply, info); err != nil {
			buffer.Put(reply)
			return nil, err
		}
		return reply, nil
	}
	h, door := env.Domain.CreateDoorInfo(proc, unref)
	return core.NewObject(env, mt, SC, doorsc.Rep{H: h}), door
}
