package netd

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/buffer"
	"repro/internal/kernel"
)

// Wire protocol. Every message is a length-prefixed frame:
//
//	frame:   [len u32] [payload]
//	hello:   [msgHello u8]   [instance u64] [epoch u64] [listenAddr string]
//	call:    [msgCall u8]    [reqID u64] [key u64] [ctx] [wirebuf]
//	reply:   [msgReply u8]   [reqID u64] [code u8] [wirebuf | errstring]
//	release: [msgRelease u8] [key u64] [count uvarint]
//	ping:    [msgPing u8]                (answered with msgPong)
//	pong:    [msgPong u8]
//
// hello is the session handshake and MUST be each side's first frame:
// instance is the sending server's random per-process identity, epoch its
// per-connection counter, listenAddr its advertised address. The pair
// (instance, epoch) names one peer session; the receiving exporter tags
// every reference it hands this peer with the session, so that when the
// peer dies or partitions past the lease grace period the references can
// be reclaimed (see the package comment's failure semantics). ping/pong
// are the heartbeat: a side that has sent nothing for a heartbeat interval
// pings, and any received frame counts as proof of peer life. A call on
// key 0, which no export holds, fetches a bootstrap root: its wirebuf
// holds the root's name, and the reply the marshalled root (ids.go).
//
// ctx is the invocation-context header: one flags byte, then the
// remaining deadline budget and the trace identity, each present only
// when its flag bit is set — a context-free call pays a single zero byte.
// A flags byte with any other bit set is refused.
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
//
// Door identifiers are mapped to this extended network form on export and
// back to (proxy) kernel doors on import, exactly the role of the Spring
// network servers (§3.3); ids.go is that mapping.
const (
	msgCall    = 1
	msgReply   = 2
	msgRelease = 3
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
		if info.Trace != 0 {
			flags |= ctxHasTrace
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
	if flags&^(ctxHasDeadline|ctxHasTrace) != 0 {
		return nil, fmt.Errorf("netd: ctx flags %#x name a field this server does not know", flags)
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
	return info, nil
}

// maxFrame bounds a frame's size as a defence against corrupt peers.
const maxFrame = 64 << 20

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

// getHello reads a hello frame's fields, positioned after its type byte.
func getHello(in *buffer.Buffer) (instance, epoch uint64, listenAddr string, err error) {
	instance, err1 := in.ReadUint64()
	epoch, err2 := in.ReadUint64()
	listenAddr, err3 := in.ReadString()
	return instance, epoch, listenAddr, cmp.Or(err1, err2, err3)
}
