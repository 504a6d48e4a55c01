package replicon

import (
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/stubs"
)

// Group is the server-side replicon machinery: the set of server domains
// conspiring to maintain one object's underlying state. Each member
// creates a kernel door accepting incoming calls on that state; the group
// tracks membership changes with an epoch so members can piggyback
// replica-set updates on replies to clients carrying stale epochs.
type Group struct {
	mu      sync.Mutex
	epoch   uint32
	members []*Member
}

// Member is one replica server in a group.
type Member struct {
	group *Group
	env   *core.Env
	door  *kernel.Door
	ref   kernel.Ref
	name  string
}

// NewGroup creates an empty replica group.
func NewGroup() *Group { return &Group{} }

// Epoch returns the group's current membership epoch.
func (g *Group) Epoch() uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Size returns the current number of members.
func (g *Group) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// Join adds a replica server running skel in env's domain. The member's
// door wraps the skeleton with the replicon server protocol. Joining bumps
// the epoch.
func (g *Group) Join(env *core.Env, name string, skel stubs.Skeleton) *Member {
	m := &Member{group: g, env: env, name: name}
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		clientEpoch, err := req.ReadUint32()
		if err != nil {
			return nil, fmt.Errorf("replicon: missing epoch control: %w", err)
		}
		reply := buffer.Get(128) // holds the epoch update, then the skeleton's results
		g.writeUpdate(reply, clientEpoch)
		if err := stubs.ServeCallInfo(skel, req, reply, info); err != nil {
			kernel.ReleaseBufferDoors(reply)
			buffer.Put(reply)
			return nil, err
		}
		return reply, nil
	}
	h, door := env.Domain.CreateDoorInfo(proc, nil)
	m.door = door
	ref, err := env.Domain.RefOf(h)
	if err != nil {
		// The handle was created two lines up; failure is impossible
		// short of memory corruption.
		panic(err)
	}
	m.ref = ref
	// The domain-level handle is subsumed by the group's ref.
	_ = env.Domain.DeleteDoor(h)

	g.mu.Lock()
	g.members = append(g.members, m)
	g.epoch++
	g.mu.Unlock()
	return m
}

// writeUpdate writes the reply control section: nothing if the client's
// replica set is current, otherwise the new epoch and the full door set.
func (g *Group) writeUpdate(reply *buffer.Buffer, clientEpoch uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if clientEpoch == g.epoch {
		reply.WriteByte(0)
		return
	}
	reply.WriteByte(1)
	reply.WriteUint32(g.epoch)
	reply.WriteUvarint(uint64(len(g.members)))
	for _, m := range g.members {
		reply.WriteDoor(m.ref.Dup())
	}
}

// Crash simulates a replica failure: the member's door is revoked and it
// leaves the group, bumping the epoch. Clients discover the failure as a
// communications error and failover to the next replica, which piggybacks
// the shrunken set.
func (m *Member) Crash() {
	m.door.Revoke()
	g := m.group
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, cur := range g.members {
		if cur == m {
			g.members = append(g.members[:i], g.members[i+1:]...)
			g.epoch++
			break
		}
	}
}

// Name returns the member's name.
func (m *Member) Name() string { return m.name }

// Ref returns a caller-owned duplicate of the member's door reference.
func (m *Member) Ref() kernel.Ref { return m.ref.Dup() }

// SharedRef returns the member's own door reference without duplicating
// it; the group retains ownership, so callers may inspect identity but
// must not release it.
func (m *Member) SharedRef() kernel.Ref { return m.ref }

// Export fabricates a client object for the group's state in env: a method
// table consisting entirely of stub methods, a replicon subcontract
// descriptor, and a representation consisting of a set of kernel door
// identifiers, one per replica (§5).
func (g *Group) Export(env *core.Env, mt *core.MTable) *core.Object {
	g.mu.Lock()
	defer g.mu.Unlock()
	hs := make([]kernel.Handle, 0, len(g.members))
	for _, m := range g.members {
		hs = append(hs, env.Domain.AdoptRef(m.ref.Dup()))
	}
	return core.NewObject(env, mt, SC, &Rep{hs: hs, epoch: g.epoch})
}
