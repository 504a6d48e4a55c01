package netd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/buffer"
	"repro/internal/kernel"
)

// FuzzFrame feeds arbitrary bytes through the receive half of the wire
// protocol as serveConn runs it: readFrame, the type byte, the request id,
// then for a call the ctx header and getWireBuffer, for a reply the code
// and getWireBuffer, for a release the coalescer's peek-ahead. The decoders
// must never panic, and every buffer drawn on the way — the frame each
// input turns into, in place — must be back in the pool when the input is
// spent, whatever it was cut off by. The checked-in corpus holds the
// frames TestReplyIsFrame captures (go test -run TestReplyIsFrame
// -update-corpus rewrites it).
func FuzzFrame(f *testing.F) {
	frame := func(fill func(b *buffer.Buffer)) []byte {
		b := buffer.New(64)
		b.WriteUint32(0)
		fill(b)
		binary.LittleEndian.PutUint32(b.Bytes(), uint32(b.Size()-4))
		return b.Bytes()
	}
	call := frame(func(b *buffer.Buffer) {
		b.WriteByte(msgCall)
		b.WriteUint64(7)  // request id
		b.WriteUint64(42) // export key
		b.WriteByte(ctxHasDeadline | ctxHasTrace | ctxHasPriority)
		b.WriteUvarint(1_000_000)
		b.WriteUint64(1)
		b.WriteUint64(2)
		b.WriteUint64(3)
		b.WriteUvarint(5)
		b.WriteUint32(4)
		b.WriteRaw([]byte("args"))
		b.WriteUvarint(1)
		b.WriteString("198.51.100.1:9")
		b.WriteUint64(99)
	})
	bulk := frame(func(b *buffer.Buffer) {
		b.WriteByte(msgReply)
		b.WriteUint64(8)
		b.WriteByte(codeOK)
		b.WriteUint32(bulkSentinel)
		b.WriteUint64(12345) // no such region
		b.WriteUvarint(0)
	})
	release := frame(func(b *buffer.Buffer) {
		b.WriteByte(msgRelease)
		b.WriteUint64(42)
		b.WriteUvarint(3)
	})
	f.Add(call)
	f.Add(bulk)
	f.Add(append(append([]byte(nil), release...), release...))
	f.Add(call[:len(call)-5])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, msgCall})

	k := kernel.New("fuzz")
	srv, err := Start(k.NewDomain("netd"), "127.0.0.1:0", WithTransport(SameMachine()))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		before := buffer.Stats()
		br := bufio.NewReader(bytes.NewReader(data))
		var rel []releasePair
		for {
			in, err := readFrame(br)
			if err != nil {
				break
			}
			msg, _ := in.ReadByte()
			_, _ = in.ReadUint64() // request id, or a release's key
			switch msg {
			case msgCall:
				_, _ = in.ReadUint64() // export key
				if _, err := getInfoHeader(in); err == nil {
					_ = srv.getWireBuffer(in)
				}
			case msgReply:
				_ = srv.decodeReply(in, descriptor{Addr: "fuzz"})
			case msgRelease:
				rel = coalesceReleases(br, rel[:0])
			}
			kernel.ReleaseBufferDoors(in) // proxies imported before an error, as the serve path does
			buffer.Put(in)
		}
		if d := buffer.Stats().Sub(before); d.Gets != d.Puts || d.Drops != 0 {
			t.Fatalf("buffer ledger after the input: %d gets, %d puts, %d drops", d.Gets, d.Puts, d.Drops)
		}
	})
}
