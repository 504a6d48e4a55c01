// Package cluster implements the cluster subcontract of §8.1.
//
// The simplex subcontract uses a distinct kernel door for each piece of
// server state exposed as a separate object — appropriate when objects
// grant access to distinctly protected resources. But some servers export
// large numbers of objects where access to one might as well mean access
// to all; for those, one door serving a whole set of objects reduces
// system overhead. Each cluster object is represented by the combination
// of a door identifier and an integer tag. The invoke_preamble and invoke
// operations conspire to ship the tag along to the server, whose
// cluster subcontract code uses the tag to dispatch to a particular
// object.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/trace"
)

// SCID is the cluster subcontract identifier.
const SCID core.ID = 3

// stats is the subcontract's metrics block.
var stats = scstats.For("cluster")

// spanInvoke traces cluster-member invocations.
var spanInvoke = trace.Name("cluster.invoke")

// Rep is a cluster object's representation: a door identifier plus the
// integer tag selecting the object behind that door.
type Rep struct {
	H   kernel.Handle
	Tag uint64
}

// ops is the client-side operations vector.
type ops struct{}

// SC is the cluster subcontract.
var SC core.ClientOps = ops{}

// Register is the library entry point installing cluster in a registry.
func Register(r *core.Registry) error { return r.Register(SC) }

func (ops) ID() core.ID  { return SCID }
func (ops) Name() string { return "cluster" }

func rep(obj *core.Object) (Rep, error) {
	r, ok := obj.Rep.(Rep)
	if !ok {
		return Rep{}, fmt.Errorf("cluster: foreign representation %T", obj.Rep)
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
	core.WriteHeader(buf, SCID, obj.MT.Type)
	buf.WriteUint64(r.Tag)
	if err := obj.Env.Domain.MoveToBuffer(r.H, buf); err != nil {
		return fmt.Errorf("cluster: marshal: %w", err)
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
	buf.WriteUint64(r.Tag)
	if err := obj.Env.Domain.CopyToBuffer(r.H, buf); err != nil {
		return fmt.Errorf("cluster: marshal_copy: %w", err)
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
	tag, err := buf.ReadUint64()
	if err != nil {
		return nil, err
	}
	h, err := env.Domain.AdoptFromBuffer(buf)
	if err != nil {
		return nil, fmt.Errorf("cluster: unmarshal: %w", err)
	}
	return core.NewObject(env, core.PickMTable(mt, actual), o, Rep{H: h, Tag: tag}), nil
}

// InvokePreamble ships the tag: it writes the tag into the communications
// buffer before the stubs marshal the operation number and arguments, so
// the server-side cluster code can dispatch.
func (ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	call.Args().WriteUint64(r.Tag)
	return nil
}

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
	return obj.Env.Domain.CallInfo(r.H, call.Args(), call.Info())
}

func (o ops) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	h, err := obj.Env.Domain.CopyDoor(r.H)
	if err != nil {
		return nil, fmt.Errorf("cluster: copy: %w", err)
	}
	return core.NewObject(obj.Env, obj.MT, o, Rep{H: h, Tag: r.Tag}), nil
}

func (ops) Consume(obj *core.Object) error {
	if err := obj.CheckLive(); err != nil {
		return err
	}
	r, err := rep(obj)
	if err != nil {
		return err
	}
	if err := obj.Env.Domain.DeleteDoor(r.H); err != nil {
		return fmt.Errorf("cluster: consume: %w", err)
	}
	return obj.MarkConsumed()
}

// Server is the server-side cluster subcontract state: one kernel door
// providing access to a whole set of objects, dispatched by tag.
type Server struct {
	env *core.Env

	mu    sync.Mutex
	h     kernel.Handle
	door  *kernel.Door
	skels map[uint64]stubs.Skeleton
	next  uint64
}

// NewServer creates the cluster's single door in env's domain.
func NewServer(env *core.Env) *Server {
	s := &Server{env: env, skels: make(map[uint64]stubs.Skeleton), next: 1}
	s.h, s.door = env.Domain.CreateDoorInfo(s.serve, nil)
	return s
}

// serve is the door target: it reads the tag shipped by the client-side
// invoke_preamble and dispatches to the tagged object's skeleton.
func (s *Server) serve(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	tag, err := req.ReadUint64()
	if err != nil {
		return nil, fmt.Errorf("cluster: missing tag: %w", err)
	}
	s.mu.Lock()
	skel, ok := s.skels[tag]
	s.mu.Unlock()
	reply := buffer.Get(128) // holds the tagged skeleton's results, or the exception for a tag with none
	if !ok {
		stubs.WriteException(reply, fmt.Sprintf("cluster: no object with tag %d (revoked?)", tag))
		return reply, nil
	}
	if err := stubs.ServeCallInfo(skel, req, reply, info); err != nil {
		buffer.Put(reply)
		return nil, err
	}
	return reply, nil
}

// Export fabricates a cluster object backed by skel, sharing the server's
// single door.
func (s *Server) Export(mt *core.MTable, skel stubs.Skeleton) (*core.Object, error) {
	s.mu.Lock()
	tag := s.next
	s.next++
	s.skels[tag] = skel
	s.mu.Unlock()
	h, err := s.env.Domain.CopyDoor(s.h)
	if err != nil {
		return nil, fmt.Errorf("cluster: export: %w", err)
	}
	return core.NewObject(s.env, mt, SC, Rep{H: h, Tag: tag}), nil
}

// RevokeTag revokes a single exported object: further calls carrying its
// tag raise a remote exception while other objects behind the door keep
// working.
func (s *Server) RevokeTag(tag uint64) {
	s.mu.Lock()
	delete(s.skels, tag)
	s.mu.Unlock()
}

// Revoke revokes the whole cluster door (§5.2.3).
func (s *Server) Revoke() { s.door.Revoke() }

// Objects reports the number of live (non-revoked) exported objects.
func (s *Server) Objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.skels)
}

// TagOf exposes an object's tag for tests and diagnostics.
func TagOf(obj *core.Object) (uint64, error) {
	r, err := rep(obj)
	if err != nil {
		return 0, err
	}
	return r.Tag, nil
}
