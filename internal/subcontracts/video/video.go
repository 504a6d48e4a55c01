// Package video implements the video subcontract sketched in §8.4: "a
// subcontract that lets video objects encapsulate a specific network
// packet protocol for live video."
//
// Control operations (play, pause, info) travel over an ordinary kernel
// door; the frames themselves ride a private packet protocol over a lossy
// datagram channel that the subcontract negotiates underneath the covers.
// When a video object is unmarshalled, the client-side subcontract creates
// a receive channel and attaches it to the source with a subcontract-
// internal door call; application code just invokes ordinary IDL
// operations and asks the object for frames. Frames may be lost on the
// wire — the packet protocol numbers them so the receiver detects gaps —
// which is exactly why this traffic cannot ride the reliable RPC path.
package video

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dgram"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/trace"
)

// SCID is the video subcontract identifier.
const SCID core.ID = 10

// attachOp is the subcontract-internal operation number used to negotiate
// the frame channel. It sits far above any stub-level operation.
const attachOp = ^uint32(0)

// The receive channel fabricated at unmarshal holds capacity frames.
// DropVar is an environment slot (an int) that makes it drop every nth
// frame, to show the sequence gaps a lossy wire leaves.
const (
	capacity = 64
	DropVar  = "video.dropevery"
)

// ErrDetached is returned by Receive after the object was consumed or
// marshalled away.
var ErrDetached = errors.New("video: frame channel detached")

// Frame is one received video frame.
type Frame struct {
	Seq     uint32
	Payload []byte
}

// encodeFrame builds the packet protocol's wire form.
func encodeFrame(seq uint32, payload []byte) []byte {
	p := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(p, seq)
	copy(p[4:], payload)
	return p
}

// decodeFrame parses a packet.
func decodeFrame(p []byte) (Frame, error) {
	if len(p) < 4 {
		return Frame{}, fmt.Errorf("video: short packet (%d bytes)", len(p))
	}
	return Frame{Seq: binary.LittleEndian.Uint32(p), Payload: p[4:]}, nil
}

// Rep is the representation: the control door plus the attached frame
// channel and gap-detection state.
type Rep struct {
	mu      sync.Mutex
	h       kernel.Handle
	ch      *dgram.Channel
	lastSeq uint32
	gotAny  bool
	lost    uint64
}

type ops struct{}

// SC is the video subcontract.
var SC core.ClientOps = ops{}

// Register is the library entry point installing video in a registry.
func Register(r *core.Registry) error { return r.Register(SC) }

func (ops) ID() core.ID  { return SCID }
func (ops) Name() string { return "video" }

// stats is the subcontract's metrics block (control-path calls only;
// frames bypass invocation entirely).
var stats = scstats.For("video")

func rep(obj *core.Object) (*Rep, error) {
	r, ok := obj.Rep.(*Rep)
	if !ok {
		return nil, fmt.Errorf("video: foreign representation %T", obj.Rep)
	}
	return r, nil
}

// Marshal moves the control door; the frame channel is machine-local
// state, closed and discarded like the rest of the local state.
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
	if err := obj.Env.Domain.MoveToBuffer(r.h, buf); err != nil {
		return fmt.Errorf("video: marshal: %w", err)
	}
	if r.ch != nil {
		r.ch.Close()
		r.ch = nil
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
	r.mu.Lock()
	defer r.mu.Unlock()
	core.WriteHeader(buf, SCID, obj.MT.Type)
	if err := obj.Env.Domain.CopyToBuffer(r.h, buf); err != nil {
		return fmt.Errorf("video: marshal_copy: %w", err)
	}
	return nil
}

// Unmarshal adopts the control door and negotiates a frame channel with
// the source through the subcontract-internal attach call.
func (o ops) Unmarshal(env *core.Env, mt *core.MTable, buf *buffer.Buffer) (*core.Object, error) {
	if obj, handled, err := core.RedispatchUnmarshal(env, mt, buf, SCID); handled {
		return obj, err
	}
	actual, err := core.ReadHeader(buf, SCID)
	if err != nil {
		return nil, err
	}
	h, err := env.Domain.AdoptFromBuffer(buf)
	if err != nil {
		return nil, fmt.Errorf("video: unmarshal: %w", err)
	}
	r := &Rep{h: h}
	if err := attach(env, r); err != nil {
		_ = env.Domain.DeleteDoor(h)
		return nil, err
	}
	return core.NewObject(env, core.PickMTable(mt, actual), o, r), nil
}

// attach fabricates the receive channel and registers it with the source.
func attach(env *core.Env, r *Rep) error {
	drop := 0
	if v, ok := env.Get(DropVar); ok {
		if n, ok := v.(int); ok {
			drop = n
		}
	}
	ch := dgram.New(capacity, drop)
	req := buffer.New(16)
	req.WriteUint32(attachOp)
	req.WriteDoor(ch)
	reply, err := env.Domain.Call(r.h, req)
	if err != nil {
		return fmt.Errorf("video: attaching frame channel: %w", err)
	}
	kernel.ReleaseBufferDoors(reply)
	buffer.Put(reply)
	r.mu.Lock()
	r.ch = ch
	r.mu.Unlock()
	return nil
}

func (ops) InvokePreamble(obj *core.Object, call *core.Call) error {
	return obj.CheckLive()
}

func (ops) Invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	begin := stats.Begin()
	sp := trace.Begin(call.Info(), spanInvoke)
	reply, err := invoke(obj, call)
	sp.End(call.Info(), err)
	stats.EndCall(begin, uint32(call.Op), call.Info().ExemplarTrace(), err)
	return reply, err
}

var spanInvoke = trace.Name("video.invoke")

func invoke(obj *core.Object, call *core.Call) (*buffer.Buffer, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	return obj.Env.Domain.CallInfo(r.h, call.Args(), call.Info())
}

// Copy duplicates the control door and attaches a fresh frame channel for
// the new object.
func (o ops) Copy(obj *core.Object) (*core.Object, error) {
	if err := obj.CheckLive(); err != nil {
		return nil, err
	}
	r, err := rep(obj)
	if err != nil {
		return nil, err
	}
	h, err := obj.Env.Domain.CopyDoor(r.h)
	if err != nil {
		return nil, fmt.Errorf("video: copy: %w", err)
	}
	nr := &Rep{h: h}
	if err := attach(obj.Env, nr); err != nil {
		_ = obj.Env.Domain.DeleteDoor(h)
		return nil, err
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
	r.mu.Lock()
	if r.ch != nil {
		r.ch.Close()
		r.ch = nil
	}
	h := r.h
	r.h = 0
	r.mu.Unlock()
	if h != 0 {
		_ = obj.Env.Domain.DeleteDoor(h)
	}
	return obj.MarkConsumed()
}

// Receive blocks for the next frame, transparently skipping wire loss; it
// accounts lost frames by sequence-number gaps (Lost).
func Receive(obj *core.Object) (Frame, error) {
	r, err := rep(obj)
	if err != nil {
		return Frame{}, err
	}
	r.mu.Lock()
	ch := r.ch
	r.mu.Unlock()
	if ch == nil {
		return Frame{}, ErrDetached
	}
	p, ok := ch.Recv()
	if !ok {
		return Frame{}, ErrDetached
	}
	f, err := decodeFrame(p)
	if err != nil {
		return Frame{}, err
	}
	r.mu.Lock()
	if r.gotAny && f.Seq > r.lastSeq+1 {
		r.lost += uint64(f.Seq - r.lastSeq - 1)
	}
	r.gotAny = true
	r.lastSeq = f.Seq
	r.mu.Unlock()
	return f, nil
}

// Lost reports how many frames were detected missing by sequence gaps.
func Lost(obj *core.Object) uint64 {
	r, err := rep(obj)
	if err != nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lost
}

// ---------------------------------------------------------------------
// Server side: the video source.

// Source is a live video source: it pushes numbered frames to all attached
// channels while playing, and serves control operations through the stub
// level.
type Source struct {
	mu       sync.Mutex
	channels []*dgram.Channel
	playing  bool
	seq      uint32
}

// NewSource returns a paused source.
func NewSource() *Source { return &Source{} }

// Playing reports whether the source is currently streaming.
func (s *Source) Playing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.playing
}

// SetPlaying starts or stops streaming (the play/pause control ops call
// this).
func (s *Source) SetPlaying(on bool) {
	s.mu.Lock()
	s.playing = on
	s.mu.Unlock()
}

// Attached reports the number of live frame channels.
func (s *Source) Attached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.channels)
}

// PushFrame broadcasts one frame to every attached viewer, pruning closed
// channels. It is a no-op while paused.
func (s *Source) PushFrame(payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.playing {
		return
	}
	s.seq++
	pkt := encodeFrame(s.seq, payload)
	live := s.channels[:0]
	for _, ch := range s.channels {
		if ch.Closed() {
			continue
		}
		ch.Send(pkt)
		live = append(live, ch)
	}
	s.channels = live
}

// Export creates a video Spring object in env: control operations are
// served by skel, frames stream from src.
func Export(env *core.Env, mt *core.MTable, skel stubs.Skeleton, src *Source, unref func()) (*core.Object, *kernel.Door) {
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		op, err := req.PeekUint32()
		if err != nil {
			return nil, err
		}
		if op == attachOp {
			_, _ = req.ReadUint32()
			slot, err := req.ReadDoor()
			if err != nil {
				return nil, fmt.Errorf("video: attach without channel: %w", err)
			}
			ch, ok := slot.(*dgram.Channel)
			if !ok {
				return nil, fmt.Errorf("video: attach slot holds %T", slot)
			}
			src.mu.Lock()
			src.channels = append(src.channels, ch)
			src.mu.Unlock()
			return buffer.Get(0), nil // attach returns nothing
		}
		reply := buffer.Get(64) // holds control-plane results, a few words; frames go by datagram
		if err := stubs.ServeCallInfo(skel, req, reply, info); err != nil {
			buffer.Put(reply)
			return nil, err
		}
		return reply, nil
	}
	h, door := env.Domain.CreateDoorInfo(proc, unref)
	r := &Rep{h: h}
	return core.NewObject(env, mt, SC, r), door
}
