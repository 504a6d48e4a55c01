package netd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/kernel"
)

// FuzzFrame feeds arbitrary bytes through the receive half of the wire
// protocol as serveConn runs it: readFrame, the type byte, then for a hello
// its three fields, and otherwise the request id and for a call the ctx
// header and getWireBuffer, for a reply the code and getWireBuffer, for a
// release the coalescer's peek-ahead. The decoders must never panic, a
// wirebuf that claims more bytes than its frame has left — 0xFFFFFFFF, once
// the bulk form's sentinel, included — must come back as a communications
// failure (ReadRaw slices, so nothing is ever allocated at the claimed
// size), and every buffer drawn on the way — the frame each input turns
// into, in place — must be back in the pool when the input is spent,
// whatever it was cut off by. The checked-in corpus holds the frames
// TestReplyIsFrame captures and the seeds below (go test -run
// 'TestReplyIsFrame|FuzzFrame' -update-corpus rewrites it).
func FuzzFrame(f *testing.F) {
	frame := func(fill func(b *buffer.Buffer)) []byte {
		b := buffer.New(64)
		b.WriteUint32(0)
		fill(b)
		binary.LittleEndian.PutUint32(b.Bytes(), uint32(b.Size()-4))
		return b.Bytes()
	}
	// cut is a frame holding the first n bytes of whole's payload.
	cut := func(whole []byte, n int) []byte {
		return frame(func(b *buffer.Buffer) { b.WriteRaw(whole[4 : 4+n]) })
	}
	callWith := func(nbytes uint32) []byte {
		return frame(func(b *buffer.Buffer) {
			b.WriteByte(msgCall)
			b.WriteUint64(7)  // request id
			b.WriteUint64(42) // export key
			b.WriteByte(ctxHasDeadline | ctxHasTrace | ctxHasPriority)
			b.WriteUvarint(1_000_000)
			b.WriteUint64(1)
			b.WriteUint64(2)
			b.WriteUint64(3)
			b.WriteUvarint(5)
			b.WriteUint32(nbytes)
			b.WriteRaw([]byte("args"))
			b.WriteUvarint(1)
			b.WriteString("198.51.100.1:9")
			b.WriteUint64(99)
		})
	}
	call := callWith(4)
	hello := frame(func(b *buffer.Buffer) {
		b.WriteByte(msgHello)
		b.WriteUint64(0xC11E47) // instance
		b.WriteUint64(3)        // epoch
		b.WriteString("unix:/run/nd.sock")
	})
	release := frame(func(b *buffer.Buffer) {
		b.WriteByte(msgRelease)
		b.WriteUint64(42)
		b.WriteUvarint(3)
	})
	seeds := map[string][]byte{
		"call":           call,
		"call-truncated": call[:len(call)-5],
		// One byte more than the frame has behind the length.
		"call-wirebuf-overlong": callWith(4 + 1 + 15 + 8 + 1),
		// What was the bulk form's sentinel and a region id: a bad length.
		"reply-wirebuf-length-all-ones": frame(func(b *buffer.Buffer) {
			b.WriteByte(msgReply)
			b.WriteUint64(8)
			b.WriteByte(codeOK)
			b.WriteUint32(^uint32(0))
			b.WriteUint64(12345)
			b.WriteUvarint(0)
		}),
		"releases":          append(append([]byte(nil), release...), release...),
		"frame-over-limit":  {0xff, 0xff, 0xff, 0x7f, msgCall},
		"hello":             hello,
		"hello-no-epoch":    cut(hello, 1+8),
		"hello-no-address":  cut(hello, 1+8+8),
		"hello-address-cut": cut(hello, 1+8+8+5),
		"hello-address-overlong": frame(func(b *buffer.Buffer) {
			b.WriteRaw(hello[4 : 4+1+8+8])
			b.WriteUvarint(1 << 32) // a 4 GiB address in a frame with three bytes left
			b.WriteRaw([]byte("uni"))
		}),
	}
	for name, seed := range seeds {
		f.Add(seed)
		if *updateCorpus {
			writeCorpus(f, name, seed)
		}
	}

	k := kernel.New("fuzz")
	srv, err := Start(k.NewDomain("netd"), "127.0.0.1:0", With(Config{Transport: SameMachine()}))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	// overlong reports whether the wirebuf skip bytes past in's read
	// position claims more bytes than the frame has left.
	overlong := func(in *buffer.Buffer, skip int) bool {
		rest := in.Bytes()[in.Size()-in.Len():]
		return len(rest) >= skip+4 && uint64(binary.LittleEndian.Uint32(rest[skip:])) > uint64(len(rest)-skip-4)
	}
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
			if msg == msgHello {
				_, _, _, _ = getHello(in)
			} else {
				_, _ = in.ReadUint64() // request id, or a release's key
			}
			switch msg {
			case msgCall:
				_, _ = in.ReadUint64() // export key
				if _, err := getInfoHeader(in); err == nil {
					bad := overlong(in, 0)
					if err := srv.getWireBuffer(in); bad && !errors.Is(err, kernel.ErrCommFailure) {
						t.Fatalf("a call's overlong wirebuf: %v, want a communications failure", err)
					}
				}
			case msgReply:
				bad := in.Len() > 0 && in.Bytes()[in.Size()-in.Len()] == codeOK && overlong(in, 1)
				if err := srv.decodeReply(in, descriptor{Addr: "fuzz"}); bad && !errors.Is(err, kernel.ErrCommFailure) {
					t.Fatalf("a reply's overlong wirebuf: %v, want a communications failure", err)
				}
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
