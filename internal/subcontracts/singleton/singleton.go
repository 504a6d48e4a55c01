// Package singleton implements the singleton subcontract: the standard,
// simple client-server subcontract that types such as file use by default
// (§6.1). The object's representation is a single kernel door identifier;
// every operation is a straightforward door call.
package singleton

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stubs"
	"repro/internal/subcontracts/doorsc"
)

// SCID is the singleton subcontract identifier.
const SCID core.ID = 1

// SC is the singleton subcontract (stateless; shared by all domains that
// link it).
var SC = &doorsc.Ops{Ident: SCID, SCName: "singleton"}

// Register is the library entry point: it installs the subcontract in a
// domain's registry.
func Register(r *core.Registry) error { return r.Register(SC) }

// Export creates a singleton Spring object in env backed by skel. The
// returned Door lets the server revoke the object.
func Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, unref func()) (*core.Object, *kernel.Door) {
	return SC.Export(env, mt, skel, unref)
}
