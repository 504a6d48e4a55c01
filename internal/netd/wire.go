package netd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/kernel"
)

// Wire protocol. Every message is a length-prefixed frame:
//
//	frame:   [len u32] [payload]
//	hello:   [msgHello u8]   [instance u64] [epoch u64] [listenAddr string] [caps u32] [machine u64]
//	call:    [msgCall u8]    [reqID u64] [key u64] [ctx] [wirebuf]
//	reply:   [msgReply u8]   [reqID u64] [code u8] [wirebuf | errstring]
//	release: [msgRelease u8] [key u64] [count uvarint]
//	root:    [msgRoot u8]    [reqID u64] [name string]   (replied with msgReply)
//	ping:    [msgPing u8]                (answered with msgPong)
//	pong:    [msgPong u8]
//
// hello is the session handshake and MUST be each side's first frame:
// instance is the sending server's random per-process identity, epoch its
// per-connection counter, listenAddr its advertised address. The pair
// (instance, epoch) names one peer session; the receiving exporter tags
// every reference it hands this peer with the session, so that when the
// peer dies or partitions past the lease grace period the references can
// be reclaimed (see the package comment's failure semantics). caps and
// machine negotiate the transport tiers: a connection uses the
// intersection of the two advertised capability sets, and only between
// peers sharing a machine identity (the capabilities are same-machine
// tiers; a TCP-only or remote peer degrades gracefully to the plain
// frame stream). ping/pong are the heartbeat: a side that has sent
// nothing for a heartbeat interval pings, and any received frame counts
// as proof of peer life.
//
// ctx is the invocation-context header: one flags byte, then the
// remaining deadline budget and the trace identity, each present only
// when its flag bit is set — a context-free call pays a single zero byte.
// The deadline crosses the wire as a relative budget in nanoseconds, not
// an absolute time, so unsynchronized machine clocks cannot corrupt it;
// the receiving side rebases it onto its own clock (network transit time
// is charged to the caller's budget, which is the conservative choice).
// The trace identity is three words: the trace ID naming the end-to-end
// call tree, the current span ID (the client-side netd.send span, so
// server-side spans nest under the hop that carried them there), and that
// span's parent — see internal/trace.
//
//	ctx: [flags u8] [budget uvarint, ns]? ([trace u64] [span u64] [parent u64])?
//
// wirebuf is a flattened communication buffer: the byte stream followed by
// the door descriptors, in the FIFO order the doors were written:
//
//	wirebuf: [nbytes u32] [bytes] [ndoors uvarint] ndoors × [addr string][key u64]
//	bulk:    [bulkSentinel u32] [regionID u64] [ndoors uvarint] ...
//
// On a connection that negotiated CapBulkRegions, a payload of at least
// Config.BulkThreshold bytes does not ride the frame: it is granted to
// the transport's region ring under the connection's owner token, and
// the frame carries the region identifier behind the nbytes sentinel.
// The receiver maps the identifier (a one-shot redemption) and reads the
// payload in place through a region-backed buffer — the bytes cross the
// machine exactly once, at grant. Regions stranded by a connection death
// or an undeliverable reply are reclaimed by the teardown path.
//
// Door identifiers are mapped to this extended network form on export and
// back to (proxy) kernel doors on import, exactly the role of the Spring
// network servers (§3.3).
const (
	msgCall    = 1
	msgReply   = 2
	msgRelease = 3
	msgRoot    = 4
	msgHello   = 5
	msgPing    = 6
	msgPong    = 7
)

// Reply codes, classifying the outcome of a forwarded door call so the
// importing side can surface the same error class a local door would.
// codeDeadline and codeCancelled carry the context endings back as their
// typed errors: a deadline that expires on the server machine must look
// identical to one that expires locally.
const (
	codeOK        = 0
	codeRevoked   = 1
	codeBadKey    = 2
	codeError     = 3
	codeDeadline  = 4
	codeCancelled = 5
	// codeOverload reports the call was shed at admission: the server's
	// dispatch engine is at its in-flight bound and refused the call
	// without executing it. Surfaced as kernel.ErrOverload — retryable.
	codeOverload = 6
)

// ctx header flag bits.
const (
	ctxHasDeadline = 1 << 0
	ctxHasTrace    = 1 << 1
	ctxHasPriority = 1 << 2
)

// putInfoHeader writes the invocation-context header for info.
func putInfoHeader(out *buffer.Buffer, info *kernel.Info) {
	var flags byte
	var budget time.Duration
	if info != nil {
		if rem, ok := info.Remaining(); ok {
			flags |= ctxHasDeadline
			if rem < 0 {
				rem = 0
			}
			budget = rem
		}
		if info.Trace != 0 && !info.Spec {
			// Speculative tail-capture traces stay on-process: the
			// slow-or-not bet is settled client-side, and the server has
			// no buffer to settle against (see internal/trace tail.go).
			flags |= ctxHasTrace
		}
		if info.Priority != 0 {
			flags |= ctxHasPriority
		}
	}
	out.WriteByte(flags)
	if flags&ctxHasDeadline != 0 {
		out.WriteUvarint(uint64(budget))
	}
	if flags&ctxHasTrace != 0 {
		out.WriteUint64(info.Trace)
		out.WriteUint64(info.Span)
		out.WriteUint64(info.Parent)
	}
	if flags&ctxHasPriority != 0 {
		// Zig-zag-free: the int32 rides as its uint32 bit pattern, so
		// negative priorities survive the uvarint.
		out.WriteUvarint(uint64(uint32(info.Priority)))
	}
}

// getInfoHeader reads the invocation-context header, rebasing the budget
// onto this machine's clock. It returns nil for a context-free call.
func getInfoHeader(in *buffer.Buffer) (*kernel.Info, error) {
	flags, err := in.ReadByte()
	if err != nil {
		return nil, err
	}
	if flags == 0 {
		return nil, nil
	}
	info := &kernel.Info{}
	if flags&ctxHasDeadline != 0 {
		budget, err := in.ReadUvarint()
		if err != nil {
			return nil, err
		}
		info.Deadline = time.Now().Add(time.Duration(budget))
	}
	if flags&ctxHasTrace != 0 {
		if info.Trace, err = in.ReadUint64(); err != nil {
			return nil, err
		}
		if info.Span, err = in.ReadUint64(); err != nil {
			return nil, err
		}
		if info.Parent, err = in.ReadUint64(); err != nil {
			return nil, err
		}
	}
	if flags&ctxHasPriority != 0 {
		p, err := in.ReadUvarint()
		if err != nil {
			return nil, err
		}
		info.Priority = int32(uint32(p))
	}
	return info, nil
}

// maxFrame bounds a frame's size as a defence against corrupt peers.
const maxFrame = 64 << 20

// stagePool recycles the arrays that stage caller-owned payloads into
// bulk grants (putWireBuffer's copy path). It is deliberately separate
// from the buffer package's shared storage pool: the staging arrays are
// payload-sized and demanded once per bulk call, and in the shared pool
// they were drained by the frame-assembly re-arm paths faster than the
// grant hooks returned them, costing a fresh zeroed allocation per call.
// Entries keep their capacity; one too small for a request is dropped
// (the workload's payload size moved up), and arrays beyond maxStageCap
// go to the collector rather than pinning memory, mirroring buffer.Put.
var stagePool sync.Pool

const maxStageCap = 256 << 10

func getStage(n int) []byte {
	if v := stagePool.Get(); v != nil {
		if s := *(v.(*[]byte)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]byte, n)
}

func putStage(p []byte) {
	if cap(p) == 0 || cap(p) > maxStageCap {
		return
	}
	p = p[:0]
	stagePool.Put(&p)
}

// bulkSentinel marks a wirebuf whose payload travels as a region grant
// rather than inline bytes. Inline payloads are bounded by maxFrame, far
// below it, so the values cannot collide.
const bulkSentinel = ^uint32(0)

// descriptor is a door identifier's extended network form.
type descriptor struct {
	Addr string
	Key  uint64
}

// readFrame reads one length-prefixed payload into a pooled buffer, which
// the caller owns (buffer.Put). The header is peeked rather than read into
// a local so that nothing per frame escapes to the heap.
func readFrame(br *bufio.Reader) (*buffer.Buffer, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // the stream ended inside a header
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("netd: frame of %d bytes exceeds limit", n)
	}
	_, _ = br.Discard(4) // peeked: cannot fail
	in := buffer.Get(int(n))
	if err := in.ReadFull(br, int(n)); err != nil {
		buffer.Put(in)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // ... or between a header and its body
		}
		return nil, err
	}
	return in, nil
}

// bulkEligible reports whether buf's payload would be handed over as a
// region on c rather than copied into the frame.
func (s *Server) bulkEligible(c *conn, buf *buffer.Buffer) bool {
	return s.mapper != nil && c != nil && buf != nil &&
		buf.Size() >= s.cfg.BulkThreshold && c.bulk()
}

// putWireBuffer flattens buf into out, converting its door references to
// descriptors through the exporting server. The door references are
// consumed (transferred to the wire); each exported reference is tagged
// with the session of the connection it ships over, so it can be
// reclaimed if that peer's lease expires.
//
// On a bulk-negotiated connection a large payload is granted as a region
// instead of riding the frame, and owned picks the hand-over discipline.
// owned declares that buf's storage belongs outright to this server — a
// reply about to be discarded — so the storage is detached into the grant
// with no copy, and the receiver's release recycles it. Every other
// payload is staged through a pooled copy the receiver then owns: a
// forwarded request's arguments belong to the caller, and a retrying
// subcontract resends — and, once an attempt succeeds, recycles — the
// same marshalled arguments while an abandoned attempt's grant may still
// be in the ring or mapped by a slow server, so aliasing them would race
// the server's read against the pool's reuse; a region-backed payload (a
// preamble pool's) may likewise recycle its bytes the moment the call
// returns.
func (s *Server) putWireBuffer(out *buffer.Buffer, buf *buffer.Buffer, c *conn, owned bool) error {
	var regionID uint64
	granted := false
	if s.bulkEligible(c, buf) {
		var region *buffer.Region
		if owned {
			if data, ok := buf.Detach(); ok {
				region = buffer.NewRegion(data, func() { buffer.Recycle(data) })
			}
		}
		if region == nil {
			data := getStage(buf.Size())
			copy(data, buf.Bytes())
			region = buffer.NewRegion(data, func() { putStage(data) })
		}
		regionID = s.mapper.GrantRegion(c.owner, region)
		granted = true
		out.WriteUint32(bulkSentinel)
		out.WriteUint64(regionID)
	} else {
		out.WriteUint32(uint32(len(buf.Bytes())))
		out.WriteRaw(buf.Bytes())
	}
	err := s.putDoors(out, buf, c)
	if err != nil && granted {
		// The frame will never be sent; pull the grant back out of the
		// ring so the region is not stranded until the connection dies.
		if reg, e := s.mapper.MapRegion(regionID); e == nil {
			reg.Release()
		}
	}
	return err
}

// putDoors ends a wirebuf: it appends to out the descriptors of buf's door
// references, exported to c's session and consumed. out may be buf itself.
func (s *Server) putDoors(out, buf *buffer.Buffer, c *conn) error {
	doors := buf.TakeDoors()
	out.WriteUvarint(uint64(len(doors)))
	for _, slot := range doors {
		desc, err := s.exportSlot(slot, c)
		if err != nil {
			return err
		}
		out.WriteString(desc.Addr)
		out.WriteUint64(desc.Key)
	}
	return nil
}

// getWireBuffer reconstitutes a communication buffer from the wire in
// place: in, positioned at a wirebuf, becomes the buffer that wirebuf
// describes — its stream narrowed to the inline payload (or re-scoped to
// the mapped bulk region), proxy doors fabricated for the received
// descriptors. Nothing is allocated and nothing changes hands: in still
// owns the frame's storage, and whoever Puts it returns the frame and the
// region each to its owner. On error a region mapped on the way has been
// released and in holds the proxy doors imported so far; the caller
// releases them and Puts it, as for any dead buffer.
func (s *Server) getWireBuffer(in *buffer.Buffer) error {
	n, err := in.ReadUint32()
	if err != nil {
		return err
	}
	var region *buffer.Region
	var off int
	if n == bulkSentinel {
		id, err := in.ReadUint64()
		if err != nil {
			return err
		}
		if s.mapper == nil {
			return commErr("bulk region %d from a peer but no region tier configured", id)
		}
		region, err = s.mapper.MapRegion(id)
		if err != nil {
			// The grant was reclaimed out from under us — the granting
			// connection died mid-hand-off. Transport-level, retryable.
			return commErr("map bulk region %d: %v", id, err)
		}
	} else {
		off = in.Size() - in.Len()
		if _, err := in.ReadRaw(int(n)); err != nil {
			return err
		}
	}
	// A region mapped above is consumed from the ring; adopting it only
	// after the descriptors are decoded keeps the reads on the frame, so
	// every later error return releases it by hand.
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
		if ref, err = s.importDesc(desc); err != nil {
			break
		}
		in.AppendDoor(ref)
	}
	if err != nil {
		region.Release()
		return err
	}
	if region != nil {
		in.Adopt(region)
	} else {
		in.Narrow(off, int(n))
	}
	return nil
}

// dropWireRegion releases the bulk region an undeliverable wirebuf
// carries, if any. in must be positioned at the wirebuf; inline payloads
// and malformed remains are left alone (the frame is garbage either
// way). Without this, a caller abandoning its reply (timeout,
// cancellation) would strand the reply's region in the ring until the
// whole connection died.
func (s *Server) dropWireRegion(in *buffer.Buffer) {
	n, err := in.ReadUint32()
	if err != nil || n != bulkSentinel || s.mapper == nil {
		return
	}
	id, err := in.ReadUint64()
	if err != nil {
		return
	}
	if reg, err := s.mapper.MapRegion(id); err == nil {
		reg.Release()
	}
}
