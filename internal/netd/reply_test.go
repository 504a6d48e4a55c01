package netd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/sock"
)

// Tests for the serve side's send half: the result buffer is the reply
// frame, and a payload-sized frame leaves by writev from where it lies.

var updateCorpus = flag.Bool("update-corpus", false, "rewrite FuzzFrame's checked-in corpus from TestReplyIsFrame's frames and FuzzFrame's own seeds")

// socketPair returns the two ends of a loopback TCP connection: real
// sockets, so the writer's sock.Writev is one writev.
func socketPair(t *testing.T) (near, far sock.Stream) {
	t.Helper()
	ln, err := sock.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan sock.Stream, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	near, err = sock.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	far = <-accepted
	if far == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { near.Close(); far.Close() })
	return near, far
}

// servedConn gives srv a connection with a session bound, whose output the
// test reads at far.
func servedConn(t *testing.T, srv *Server) (*conn, sock.Stream) {
	t.Helper()
	near, far := socketPair(t)
	c := newConn(near)
	c.sess = &session{refs: make(map[uint64]int)}
	t.Cleanup(func() { c.fail(errConnDead) })
	return c, far
}

// rawFrame reads one frame, length prefix included.
func rawFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		t.Fatal(err)
	}
	frame := append(hdr, make([]byte, binary.LittleEndian.Uint32(hdr))...)
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

// referenceReply is the reply encoding as netd.reply assembled it before
// the result buffer became the frame: a fresh buffer, the header written
// field by field, the payload copied in behind its length, then the
// descriptors.
func referenceReply(reqID uint64, code byte, payload []byte, descs []descriptor, errMsg string) []byte {
	b := buffer.New(64 + len(payload))
	b.WriteUint32(0) // frame length, patched below
	b.WriteByte(msgReply)
	b.WriteUint64(reqID)
	b.WriteByte(code)
	switch code {
	case codeOK:
		b.WriteUint32(uint32(len(payload)))
		b.WriteRaw(payload)
		b.WriteUvarint(uint64(len(descs)))
		for _, d := range descs {
			b.WriteString(d.Addr)
			b.WriteUint64(d.Key)
		}
	case codeError:
		b.WriteString(errMsg)
	}
	frame := b.Bytes()
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

func TestReplyIsFrame(t *testing.T) {
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, far := servedConn(t, srv)
	app := k.NewDomain("app")
	door, _ := app.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) { return buffer.New(0), nil }, nil)

	// bytesResult marshals what a generated skeleton does for a read.
	bytesResult := func(b *buffer.Buffer, n int) *buffer.Buffer {
		b.WriteUint32(0) // the stub layer's status word
		b.CommitBytes(append(b.ReserveBytes(), bytes.Repeat([]byte("spring"), n/6+1)[:n]...))
		return b
	}
	cases := []struct {
		name    string
		code    byte
		errMsg  string
		ndoors  int
		inPlace bool
		out     func() *buffer.Buffer
	}{
		{name: "null", inPlace: true, out: func() *buffer.Buffer {
			b := buffer.Get(128)
			b.WriteUint32(0)
			b.WriteInt64(42)
			return b
		}},
		{name: "read-1k", inPlace: true, out: func() *buffer.Buffer { return bytesResult(buffer.Get(128+1<<10), 1<<10) }},
		{name: "read-64k", inPlace: true, out: func() *buffer.Buffer { return bytesResult(buffer.Get(128+64<<10), 64<<10) }},
		{name: "two-doors", ndoors: 2, inPlace: true, out: func() *buffer.Buffer {
			b := buffer.Get(256) // room behind the stream for both descriptors
			b.WriteString("first")
			if err := app.CopyToBuffer(door, b); err != nil {
				t.Fatal(err)
			}
			b.WriteUint32(7)
			if err := app.CopyToBuffer(door, b); err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{name: "error", code: codeError, errMsg: "filesys: no such file", out: func() *buffer.Buffer { return nil }},
		{name: "foreign-buffer", out: func() *buffer.Buffer { return bytesResult(buffer.New(64), 300) }},
		{name: "request-answered-with-itself", out: func() *buffer.Buffer {
			b := buffer.Get(256) // a request frame, narrowed to its payload
			b.WriteString("call header")
			at := b.Size()
			b.WriteString("echoed arguments")
			b.Narrow(at, b.Size()-at)
			return b
		}},
		{name: "no-tail-room", out: func() *buffer.Buffer {
			b := buffer.Get(128)
			b.WriteUint32(0)
			b.WriteRaw(bytes.Repeat([]byte("s"), cap(b.Bytes())-4)) // the result ends where the array does
			return b
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqID := uint64(1000 + i)
			out := tc.out()
			var payload []byte
			if out != nil {
				payload = append(payload, out.Bytes()...)
			}
			before := buffer.Stats()
			frame := srv.replyFrame(c, reqID, tc.code, out, tc.errMsg)
			drawn := buffer.Stats().Sub(before).Gets
			if want := int64(1); tc.inPlace {
				if drawn != 0 {
					t.Errorf("reply drew %d buffers, want 0: the result buffer is the frame", drawn)
				}
			} else if drawn != want {
				t.Errorf("reply drew %d buffers, want %d", drawn, want)
			}
			if err := c.send(frame); err != nil {
				t.Fatal(err)
			}
			got := rawFrame(t, far)

			// The existing decoder reads it: header, then the result in place.
			in, err := readFrame(bufio.NewReader(bytes.NewReader(got)))
			if err != nil {
				t.Fatal(err)
			}
			defer buffer.Put(in)
			msg, _ := in.ReadByte()
			id, _ := in.ReadUint64()
			if msg != msgReply || id != reqID {
				t.Fatalf("frame type %d for request %d, want msgReply for %d", msg, id, reqID)
			}
			err = srv.decodeReply(in, descriptor{Addr: "test"})
			if tc.code == codeError {
				if err == nil || !strings.Contains(err.Error(), tc.errMsg) {
					t.Fatalf("decoded error = %v, want %q", err, tc.errMsg)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(in.Bytes(), payload) || in.DoorCount() != tc.ndoors {
					t.Fatalf("decoded %d bytes and %d doors, want %d and %d", in.Size(), in.DoorCount(), len(payload), tc.ndoors)
				}
				kernel.ReleaseBufferDoors(in)
			}

			// And it is, byte for byte, what the copying encoder produced
			// (for the descriptors the frame carries: export keys are the
			// server's to pick).
			if want := referenceReply(reqID, tc.code, payload, frameDescriptors(got, tc.ndoors), tc.errMsg); !bytes.Equal(got, want) {
				t.Fatalf("frame differs from the reference encoding:\n got %d bytes % x …\nwant %d bytes % x …", len(got), got[:min(len(got), 48)], len(want), want[:min(len(want), 48)])
			}
			if *updateCorpus {
				writeCorpus(t, "reply-"+tc.name, got)
			}
		})
	}
}

// frameDescriptors reads the n descriptors that end a codeOK reply frame.
func frameDescriptors(frame []byte, n int) []descriptor {
	if n == 0 {
		return nil
	}
	r := buffer.FromParts(frame[4+replyHeaderLen-4:], nil) // positioned at nbytes
	nbytes, _ := r.ReadUint32()
	_, _ = r.ReadRaw(int(nbytes))
	_, _ = r.ReadUvarint()
	descs := make([]descriptor, n)
	for i := range descs {
		descs[i].Addr, _ = r.ReadString()
		descs[i].Key, _ = r.ReadUint64()
	}
	return descs
}

// writeCorpus checks frame in as a FuzzFrame seed.
func writeCorpus(t testing.TB, name string, frame []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// testFrame is a pooled frame of n bytes whose first byte is tag.
func testFrame(tag byte, n int) *buffer.Buffer {
	b := buffer.Get(n)
	b.WriteByte(tag)
	b.WriteRaw(bytes.Repeat([]byte{tag}, n-1))
	return b
}

func TestLargeFrameBypassesBatch(t *testing.T) {
	near, far := socketPair(t)
	c := newConn(near)
	sizes := []int{40, 1 << 10, 64<<10 + 30, 40, 200} // small, small, a 64 KiB read's reply, small, small
	for i, n := range sizes {
		if err := c.queue(testFrame(byte(i+1), n)); err != nil {
			t.Fatal(err)
		}
	}
	flushes, ledger := gFlushes.Value(), buffer.Stats()
	read := make(chan error, 1)
	go func() {
		for i, n := range sizes { // FIFO, each frame whole
			got := rawFrame(t, far)
			if len(got) != 4+n || got[4] != byte(i+1) || got[len(got)-1] != byte(i+1) {
				read <- fmt.Errorf("frame %d: %d bytes tagged %d, want %d tagged %d", i, len(got)-4, got[4], n, i+1)
				return
			}
		}
		read <- nil
	}()
	c.flush()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	// There is no batch to bypass any more: small and large alike leave from
	// where they lie, all five in one writev, and nothing is drawn to carry
	// them.
	if d := gFlushes.Value() - flushes; d != 1 {
		t.Errorf("%d flushes for five queued frames, want 1", d)
	}
	if d := buffer.Stats().Sub(ledger); d.Puts != int64(len(sizes)) || d.Gets != 0 {
		t.Errorf("the write put %d of %d frames back and drew %d", d.Puts, len(sizes), d.Gets)
	}
	if depth := gSendQueueDepth.Value(); depth != 0 {
		t.Errorf("netd.sendq_depth is %d with nothing queued", depth)
	}
}

// failingConn accepts writes until it has taken limit bytes, then fails.
type failingConn struct {
	sock.Stream
	limit int
}

func (f *failingConn) Write(p []byte) (int, error) {
	if f.limit -= len(p); f.limit < 0 {
		return 0, errors.New("link severed")
	}
	return len(p), nil
}

func TestConnectionDeathMidWritevRunsEveryDrop(t *testing.T) {
	near, _ := socketPair(t)
	// The batch's small frames get out; the large frame behind them, in
	// the same flush, does not.
	c := newConn(&failingConn{Stream: near, limit: 4 << 10})
	var dropped atomic.Int32
	ledger := buffer.Stats()
	sizes := []int{40, 64<<10 + 30, 40, 64<<10 + 30, 40}
	for i, n := range sizes {
		if err := c.enqueue(testFrame(byte(i+1), n), func() { dropped.Add(1) }, false); err != nil {
			t.Fatal(err)
		}
	}
	c.flush()
	if !c.isDead() {
		t.Fatal("a failed writev left the connection alive")
	}
	if got := dropped.Load(); got != int32(len(sizes)) {
		t.Errorf("%d of %d frames had their drop run", got, len(sizes))
	}
	if d := buffer.Stats().Sub(ledger); d.Gets != d.Puts {
		t.Errorf("ledger after the failed flush: %d gets, %d puts", d.Gets, d.Puts)
	}
}

func TestServedMixedReadAllocs(t *testing.T) {
	// A 64 KiB read on one file interleaved with 1 KiB reads on another, and
	// with 1 KiB reads on the same file: the large result finds an idle
	// large array at ReserveBytes whatever that door returned last, and the
	// small ones neither regrow theirs nor carry a payload-sized array to
	// the socket.
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	a := newMachineCfg(t, "A", Config{}, filesys.RegisterAll)
	svc := filesys.NewService(a.env)
	peer := dialRawPeer(t, a.srv.Addr())
	var calls [][]byte
	for _, f := range []struct {
		name  string
		reads []int
	}{{"bulk", []int{64 << 10, 1 << 10}}, {"small", []int{1 << 10}}} {
		file, err := svc.Create(f.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(0, bytes.Repeat([]byte{0x42}, f.reads[0])); err != nil {
			t.Fatal(err)
		}
		a.srv.PublishRoot(f.name, file.Obj)
		key := peer.importRoot(f.name)
		for _, n := range f.reads {
			read := buffer.New(16)
			read.WriteUint32(uint32(filesys.FileReadOp))
			read.WriteInt64(0)
			read.WriteInt32(int32(n))
			peer.prepareCall(key, read)
			calls = append(calls, peer.call)
		}
	}
	all := func() {
		for _, call := range calls {
			peer.call = call
			peer.roundTrips(1)
		}
	}
	// AllocsPerRun measures on one processor; so must the warm-up, or what it
	// left in the other processor's private pool slot is out of reach and the
	// first measured round makes it again. (The writer goroutine used to put
	// frames back from wherever it ran and hid this; the reader, which puts
	// them back now, warms exactly one slot. E28.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 100; i++ {
		all()
	}
	before := buffer.Stats()
	if n := testing.AllocsPerRun(500, all); n > 0 {
		t.Errorf("a 64 KiB read, a 1 KiB read of the same file and one of another allocate %.2f objects a round, want 0", n)
	}
	if d := buffer.Stats().Sub(before); d.LargeAllocs != 0 || d.Misses != 0 {
		t.Errorf("%d payload-sized arrays allocated and %d pool misses in steady state", d.LargeAllocs, d.Misses)
	}
}
