package netd

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
)

// This file is the identifier mapping of §3.3: a door reference leaving
// this machine becomes a descriptor — the machine's address and a key in
// its export table — and a descriptor arriving becomes a door again: the
// real door for one of ours coming home, a proxy door for any other. It
// touches no connection or socket, starts no goroutine and reads no clock
// (TestProtoIsPure). Its decisions are proto events, taken under mu and
// ended by end. A proxy's body is the owner's: Server's forwards the call
// over a link, a test's hands the bytes to the other machine.

// descriptor is a door identifier's extended network form.
type descriptor struct {
	Addr string
	Key  uint64
}

// replyHeaderLen is what comes before a result in its reply frame:
// [msgReply u8] [reqID u64] [code u8] [nbytes u32]. Behind the result come
// the door count and, per door, a descriptor: descriptorRoom holds one
// whose address is up to 54 bytes long.
const (
	replyHeaderLen = 1 + 8 + 1 + 4
	descriptorRoom = 64
)

// ids is one machine's side of the mapping.
type ids struct {
	dom  *kernel.Domain
	addr string // this machine's advertised address, in every descriptor it exports

	mu      sync.Mutex // guards proto, roots and proxies
	proto   *proto     // the control plane (proto.go): events under mu, actions after it
	roots   map[string]*core.Object
	proxies map[uint64]*proxy // live proxy doors minted here, by door identity

	// end ends an event: it unlocks mu and performs what the event
	// appended to proto.acts (Server.settle).
	end func()
	// body runs a call on a proxy for desc, minted under p's import epoch.
	body func(desc descriptor, p *peerState, epoch uint64, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error)
}

// proxy is a door minted for a peer's descriptor. It holds one reference
// at the exporter, which its unreferenced notification releases — unless
// the reference went home in a descriptor.
type proxy struct {
	desc  descriptor
	p     *peerState
	epoch uint64
	id    uint64
	door  *kernel.Door
	home  bool
}

// exportSlot maps an in-flight door reference to its network form,
// transferring the reference into the export table, held under sess, the
// lease session of the peer it ships to. The last reference to a proxy
// shipped to the proxy's own exporter goes as the exporter's descriptor,
// carrying the proxy's reference there, and the proxy dies without a
// release: the door comes home as itself.
func (x *ids) exportSlot(slot buffer.Door, sess *session) (descriptor, error) {
	ref, ok := slot.(kernel.Ref)
	if !ok {
		return descriptor{}, fmt.Errorf("netd: cannot export %T", slot)
	}
	door, h := ref.DoorID(), x.dom.AdoptRef(ref)
	x.mu.Lock()
	if px := x.proxies[door]; px != nil && sess != nil && sess.addr == px.desc.Addr &&
		px.door.Refs() == 1 && px.p.epoch.Load() == px.epoch {
		px.home = true
		x.proto.do(action{kind: actDelete, h: h})
		x.end()
		return px.desc, nil
	}
	key, ok := x.proto.exported(sess, door, h)
	x.end()
	if !ok {
		return descriptor{}, commErr("no live session to export over")
	}
	return descriptor{Addr: x.addr, Key: key}, nil
}

// importDesc converts a network form that arrived from sess's peer back
// into a kernel door reference: a proxy door for a remote descriptor, the
// real door for one coming home. A proxy captures the exporter address's
// current import epoch; if the exporter later stays unreachable past the
// lease grace period the epoch is bumped and the proxy is poisoned.
func (x *ids) importDesc(desc descriptor, sess *session) (kernel.Ref, error) {
	if desc.Addr == x.addr {
		// One of our own doors returning home: unwrap to the real door,
		// consuming the remote reference the descriptor carried.
		x.mu.Lock()
		h, ok := x.proto.unwrapped(desc.Key, sess)
		ref, err := x.dom.RefOf(h) // before end deletes h, if that was its last holder (h is 0 unless ok)
		x.end()
		if !ok {
			return kernel.Ref{}, fmt.Errorf("netd: stale home descriptor key %d", desc.Key)
		}
		return ref, err
	}
	px := &proxy{desc: desc}
	h, door := x.dom.CreateDoorInfo(func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		return x.body(px.desc, px.p, px.epoch, req, info)
	}, func() {
		x.mu.Lock()
		delete(x.proxies, px.id)
		px.p.holds--
		if !px.home {
			x.proto.proxyReleased(px.p, px.epoch, px.desc.Key, 1)
		}
		x.end()
	})
	ref, err := x.dom.RefOf(h)
	if err == nil {
		err = x.dom.DeleteDoor(h)
	}
	if err != nil {
		return kernel.Ref{}, err
	}
	px.id, px.door = ref.DoorID(), door
	// The proxy holds its peer's record, so the per-call poison check is
	// one atomic load, not a trip through mu, and the record outlives it.
	x.mu.Lock()
	px.p = x.proto.hold(desc.Addr)
	px.epoch = px.p.epoch.Load()
	x.proxies[px.id] = px
	x.end()
	return ref, nil
}

// Exports reports the number of live export entries (observability).
func (x *ids) Exports() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.proto.exports)
}

// ---------------------------------------------------------------------
// The wirebuf codec (wire.go has the layout).

// putWireBuffer flattens buf into out, converting its door references to
// descriptors exported to sess. The door references are consumed
// (transferred to the wire); each exported reference is tagged with sess,
// so it can be reclaimed if that peer's lease expires.
func (x *ids) putWireBuffer(out *buffer.Buffer, buf *buffer.Buffer, sess *session) error {
	out.WriteUint32(uint32(len(buf.Bytes())))
	out.WriteRaw(buf.Bytes())
	return x.putDoors(out, buf, sess)
}

// putDoors ends a wirebuf: it appends to out the descriptors of buf's door
// references, exported to sess and consumed. out may be buf itself.
func (x *ids) putDoors(out, buf *buffer.Buffer, sess *session) error {
	doors := buf.TakeDoors()
	out.WriteUvarint(uint64(len(doors)))
	for _, slot := range doors {
		desc, err := x.exportSlot(slot, sess)
		if err != nil {
			return err
		}
		out.WriteString(desc.Addr)
		out.WriteUint64(desc.Key)
	}
	return nil
}

// getWireBuffer reconstitutes a communication buffer that arrived from
// sess's peer in place: in, positioned at a wirebuf, becomes the buffer
// that wirebuf describes — its stream narrowed to the payload, doors
// imported for the received descriptors. Nothing is allocated and nothing
// changes hands: in still owns the frame's storage, and whoever Puts it
// returns the frame. A payload length the frame cannot hold is a corrupt
// peer, reported in the communications class. On error in holds the doors
// imported so far; the caller releases them and Puts it, as for any dead
// buffer.
func (x *ids) getWireBuffer(in *buffer.Buffer, sess *session) error {
	n, err := in.ReadUint32()
	if err != nil {
		return err
	}
	off := in.Size() - in.Len()
	if _, err := in.ReadRaw(int(n)); err != nil {
		return commErr("wirebuf of %d bytes in a frame with %d left", n, in.Len())
	}
	nd, err := in.ReadUvarint()
	for i := uint64(0); err == nil && i < nd; i++ {
		var desc descriptor
		if desc.Addr, err = in.ReadString(); err != nil {
			break
		}
		if desc.Key, err = in.ReadUint64(); err != nil {
			break
		}
		var ref kernel.Ref
		if ref, err = x.importDesc(desc, sess); err != nil {
			break
		}
		in.AppendDoor(ref)
	}
	if err != nil {
		return err
	}
	in.Narrow(off, int(n))
	return nil
}

// frameResult makes the result out its own reply frame, its doors
// exported to sess: the header goes into the headroom in front of the
// marshalled bytes and the door descriptors behind them, so the buffer the
// skeleton filled is the one the writer sends from — nothing is drawn and
// no payload byte moves. One kind of result is framed by copy, as all used
// to be: one with no headroom to prepend into — a request buffer answered
// with itself, an application door's own buffer, a reply a small append
// has regrown — or no room behind it for the descriptors, which appending
// them would move whole. An error is a door that could not be exported;
// out is disposed of either way.
func (x *ids) frameResult(reqID uint64, out *buffer.Buffer, sess *session) (*buffer.Buffer, error) {
	n := out.Size()
	frame := out
	var err error
	if hdr := out.Prepend(replyHeaderLen, 1+descriptorRoom*out.DoorCount()); hdr != nil {
		hdr[0], hdr[9] = msgReply, codeOK
		binary.LittleEndian.PutUint64(hdr[1:], reqID)
		binary.LittleEndian.PutUint32(hdr[10:], uint32(n))
		err = x.putDoors(out, out, sess)
	} else {
		frame = replyHeader(buffer.Get(32), reqID, codeOK) // grows to the payload
		err = x.putWireBuffer(frame, out, sess)
		buffer.Put(out)
	}
	if err != nil {
		buffer.Put(frame)
		return nil, err
	}
	return frame, nil
}

// ---------------------------------------------------------------------
// Bootstrap roots: a root request is a call on key 0, which no export
// ever holds (proto.nextKey starts at 1).

// PublishRoot publishes obj under name: remote machines can fetch a copy
// with ImportRootObject to obtain their first object on this machine. The
// object is retained (copies are marshalled per request, through its
// subcontract).
func (x *ids) PublishRoot(name string, obj *core.Object) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.roots[name] = obj
}

// root marshals a copy of the root published as name, the result of a
// root request. A durable server labels the doors in it before the reply
// exports them, so a restart can rebind their keys (RootRebinder).
func (x *ids) root(name string) (*buffer.Buffer, error) {
	x.mu.Lock()
	obj, ok := x.roots[name]
	x.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRoot, name)
	}
	out := buffer.Get(64)
	if err := obj.MarshalCopy(out); err != nil {
		buffer.Put(out)
		return nil, err
	}
	if x.proto.cfg.StateFile != "" {
		x.mu.Lock()
		for i, d := range out.Doors() {
			if ref, ok := d.(kernel.Ref); ok && ref.Valid() {
				x.proto.label(ref.DoorID(), fmt.Sprintf("root:%s/%d", name, i))
			}
		}
		x.end()
	}
	return out, nil
}

// ImportRootObject fetches the named root object from the server at addr
// and unmarshals it into env (which must belong to this server's kernel).
func (s *Server) ImportRootObject(env *core.Env, addr, name string, expected *core.MTable) (*core.Object, error) {
	req := buffer.Get(16 + len(name))
	req.WriteString(name)
	s.mu.Lock()
	p := s.proto.hold(addr)
	s.mu.Unlock()
	defer func() { s.mu.Lock(); p.holds--; s.mu.Unlock() }()
	buf, err := s.forwardInfo(descriptor{Addr: addr}, p, p.epoch.Load(), req, nil)
	buffer.Put(req)
	if err != nil {
		return nil, err
	}
	obj, err := core.Unmarshal(env, expected, buf)
	kernel.ReleaseBufferDoors(buf)
	buffer.Put(buf)
	return obj, err
}
