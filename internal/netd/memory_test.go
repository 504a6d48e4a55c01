package netd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/buffer"
	"repro/internal/filesys"
	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/sock"
)

// Tests for the flat-memory serve path: a served call hands back every
// buffer it took, so the heap after many calls is the heap after few.

// rawPeer is a netd peer reduced to a socket and two fixed buffers. It
// allocates nothing per call, so a server it drives in-process sees what
// springfsd sees from a client in another process: its own allocations
// are the only ones pacing the collector.
type rawPeer struct {
	t    *testing.T
	conn sock.Stream
	br   *bufio.Reader
	call []byte // one length-prefixed call, request id patched per send
}

// dialRawPeer connects to addr, a server's advertised address, and
// completes the session handshake.
func dialRawPeer(t *testing.T, addr string) *rawPeer {
	t.Helper()
	return dialRawPeerAs(t, addr, 0xC11E47, "") // no listen address: nothing dials back
}

// dialRawPeerAs is dialRawPeer for a peer of the given instance that
// advertises listen as its address.
func dialRawPeerAs(t *testing.T, addr string, instance uint64, listen string) *rawPeer {
	t.Helper()
	conn, err := SameMachine().Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &rawPeer{t: t, conn: conn, br: bufio.NewReaderSize(conn, 128<<10)} // holds a whole 64 KiB reply frame
	hello := buffer.New(32)
	hello.WriteByte(msgHello)
	hello.WriteUint64(instance)
	hello.WriteUint64(1) // epoch
	hello.WriteString(listen)
	if err := writeFrame(conn, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	p.next(msgHello)
	return p
}

// next returns the payload of the next frame of type want, after its type
// byte, skipping heartbeats. The slice is the reader's own buffer, valid
// until the following call.
func (p *rawPeer) next(want byte) []byte {
	for {
		hdr, err := p.br.Peek(4)
		if err != nil {
			p.t.Fatal(err)
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		frame, err := p.br.Peek(4 + n)
		if err != nil {
			p.t.Fatal(err)
		}
		_, _ = p.br.Discard(4 + n)
		if n > 0 && frame[4] == want {
			return frame[5:]
		}
	}
}

// importRoot fetches the named root — a context-free call on key 0 whose
// wirebuf holds the name — and returns the export key of the door its
// marshalled form carries.
func (p *rawPeer) importRoot(name string) uint64 {
	args := buffer.New(32)
	args.WriteString(name)
	req := buffer.New(64)
	req.WriteByte(msgCall)
	req.WriteUint64(1) // request id
	req.WriteUint64(0) // the root key
	req.WriteByte(0)   // context-free
	req.WriteUint32(uint32(args.Size()))
	req.WriteRaw(args.Bytes())
	req.WriteUvarint(0) // no doors
	if err := writeFrame(p.conn, req.Bytes()); err != nil {
		p.t.Fatal(err)
	}
	reply := buffer.FromParts(p.next(msgReply), nil)
	_, _ = reply.ReadUint64() // request id
	code, _ := reply.ReadByte()
	n, _ := reply.ReadUint32()
	_, _ = reply.ReadRaw(int(n))
	doors, _ := reply.ReadUvarint()
	_, _ = reply.ReadString() // exporter address
	key, err := reply.ReadUint64()
	if code != codeOK || doors != 1 || err != nil {
		p.t.Fatalf("root %q: code %d, %d doors, %v", name, code, doors, err)
	}
	return key
}

// prepare builds the null call the peer will repeat: counter.get() on key.
func (p *rawPeer) prepare(key uint64) {
	args := buffer.New(4)
	args.WriteUint32(uint32(sctest.OpGet))
	p.prepareCall(key, args)
}

// prepareCall builds the call the peer will repeat: args (operation number
// first, as a stub marshals them) sent to the door exported under key.
func (p *rawPeer) prepareCall(key uint64, args *buffer.Buffer) {
	frame := buffer.New(64 + args.Size())
	frame.WriteUint32(0) // frame length, patched below
	frame.WriteByte(msgCall)
	frame.WriteUint64(0) // request id, patched per call
	frame.WriteUint64(key)
	frame.WriteByte(0) // context-free
	frame.WriteUint32(uint32(args.Size()))
	frame.WriteRaw(args.Bytes())
	frame.WriteUvarint(0) // no doors
	p.call = frame.Bytes()
	binary.LittleEndian.PutUint32(p.call, uint32(len(p.call)-4))
}

// roundTrips makes the prepared call n times, one at a time.
func (p *rawPeer) roundTrips(n int) {
	for i := 1; i <= n; i++ {
		binary.LittleEndian.PutUint64(p.call[5:], uint64(i))
		if _, err := p.conn.Write(p.call); err != nil {
			p.t.Fatal(err)
		}
		reply := p.next(msgReply)
		if id := binary.LittleEndian.Uint64(reply); id != uint64(i) || reply[8] != codeOK {
			p.t.Fatalf("call %d answered by reply %d, code %d", i, id, reply[8])
		}
	}
}

// heapAfterGC is the live heap as the collector's pacer sees it: one
// forced cycle, which moves what sync.Pool holds to its victim cache but
// does not free it. That is the figure that matters — the next cycle is
// paced off it, so a pool that gains a buffer per call buys itself a
// longer cycle to gain more in, and the heap grows with calls served even
// though a second forced cycle would show all of it to be garbage.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestServeMemoryFlat(t *testing.T) {
	// The springfsd benchmark's finding, in process: the server's peak RSS
	// grew ~59 bytes per served null call without bound (30 MB after 4 s,
	// 62 MB after 32 s), because each call left the pool one Buffer struct
	// whose storage aliased the call's 30-byte frame.
	if testing.Short() || raceEnabled {
		t.Skip("220k round trips; skipped in -short, and under the race detector, where sync.Pool drops puts by design")
	}
	a := newMachine(t, "A")
	exportCounter(t, a, "counter")
	peer := dialRawPeer(t, a.srv.Addr())
	peer.prepare(peer.importRoot("counter"))
	// A file server's live heap is mostly the files it serves, and the
	// collector lets the heap grow by the live heap's size between
	// cycles. The ballast stands in for the store: without it the test
	// binary collects every 4 MB and a per-call leak never builds up.
	store := make([]byte, 32<<20)
	defer runtime.KeepAlive(store)

	peer.roundTrips(20_000)
	early, ledger := heapAfterGC(), buffer.Stats()
	peer.roundTrips(200_000)
	late := heapAfterGC()
	const limit = 1 << 20
	if late > early+limit {
		t.Errorf("live heap grew %d bytes over 200k served null calls (%d after 20k, %d after 220k), want within %d",
			late-early, early, late, limit)
	}
	// The ledger says why it stays flat: what the calls drew they put
	// back, nothing had to be allocated to serve them, and nothing was
	// offered to the pool that it does not own.
	d := buffer.Stats().Sub(ledger)
	if out := d.Gets - d.Puts; out > 2 { // a heartbeat may be in flight
		t.Errorf("200k served calls left %d pooled buffers outstanding", out)
	}
	if d.Misses > 2000 { // a forced GC empties the pool once; 1 % is far above that
		t.Errorf("200k served calls missed the pool %d times", d.Misses)
	}
	if d.Drops != 0 {
		t.Errorf("200k served calls offered the pool %d buffers it does not own", d.Drops)
	}
}

func TestServedNullCallAllocs(t *testing.T) {
	// The whole server side of one null call — frame read, request
	// reconstitution, dispatch, skeleton, reply marshal, reply frame,
	// writer flush — measured with a peer that allocates nothing itself,
	// on the reader goroutine (inline) and through the worker pool's run
	// queue. The ceiling is the measured value: zero. (Inline it was four:
	// the frame, the header it was read through, the request's Buffer,
	// and storage to re-arm one of the pool's useless shells. Queued, a
	// closure on top.)
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	for name, cfg := range map[string]Config{
		"inline": {},
		"queued": {InlineThreshold: -1},
	} {
		t.Run(name, func(t *testing.T) {
			a := newMachineCfg(t, "A", cfg)
			exportCounter(t, a, "counter")
			peer := dialRawPeer(t, a.srv.Addr())
			peer.prepare(peer.importRoot("counter"))
			peer.roundTrips(100)
			n := testing.AllocsPerRun(2000, func() { peer.roundTrips(1) })
			if n > 0 {
				t.Fatalf("one served null call allocates %.2f objects, want 0", n)
			}
		})
	}
}

func TestServedReadWriteAllocs(t *testing.T) {
	// The server side of a 64 KiB file read and of a 64 KiB file write,
	// end to end as above. A write's bytes are lent to the store straight
	// out of the request frame and copied once, into the file; a read's are
	// appended once, file to reply buffer, behind a length prefix patched
	// afterwards. Neither allocates: before, each made a payload-sized copy
	// on the way (the skeleton's private copy of the argument; the store's
	// private copy of the result).
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	const block = 64 << 10
	for name, cfg := range map[string]Config{
		"inline": {},
		"queued": {InlineThreshold: -1},
	} {
		t.Run(name, func(t *testing.T) {
			a := newMachineCfg(t, "A", cfg, filesys.RegisterAll)
			f, err := filesys.NewService(a.env).Create("bulk")
			if err != nil {
				t.Fatal(err)
			}
			content := bytes.Repeat([]byte{0x42}, block)
			if _, err := f.Write(0, content); err != nil {
				t.Fatal(err)
			}
			a.srv.PublishRoot("bulk", f.Obj)
			peer := dialRawPeer(t, a.srv.Addr())
			key := peer.importRoot("bulk")

			read := buffer.New(16)
			read.WriteUint32(uint32(filesys.FileReadOp))
			read.WriteInt64(0)
			read.WriteInt32(block)
			write := buffer.New(block + 16)
			write.WriteUint32(uint32(filesys.FileWriteOp))
			write.WriteInt64(0)
			write.WriteBytes(content)
			for _, call := range []struct {
				op   string
				args *buffer.Buffer
			}{{"read", read}, {"write", write}} {
				peer.prepareCall(key, call.args)
				peer.roundTrips(200) // every pooled buffer a call may draw has grown to the payload
				n := testing.AllocsPerRun(500, func() { peer.roundTrips(1) })
				if n > 0 {
					t.Errorf("one served 64 KiB %s allocates %.2f objects, want 0", call.op, n)
				}
			}
			if got, err := f.Read(0, block); err != nil || !bytes.Equal(got, content) {
				t.Fatalf("file after the run: %d bytes, %v", len(got), err)
			}
		})
	}
}

func TestSameMachineReadWriteAllocs(t *testing.T) {
	// The unix-socket twin of TestServedReadWriteAllocs, which is the path
	// bulk_mixed_c8 runs: a SameMachine server's 64 KiB payloads ride the
	// frame over its unix socket, arrive intact both ways, and in steady
	// state neither allocate nor make a payload-sized array.
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	const block = 64 << 10
	a := newSameMachine(t, "A", Config{}, filesys.RegisterAll)
	f, err := filesys.NewService(a.env).Create("bulk")
	if err != nil {
		t.Fatal(err)
	}
	a.srv.PublishRoot("bulk", f.Obj)
	peer := dialRawPeer(t, a.srv.Addr())
	key := peer.importRoot("bulk")

	content := bigPayload(block)
	write := buffer.New(block + 16)
	write.WriteUint32(uint32(filesys.FileWriteOp))
	write.WriteInt64(0)
	write.WriteBytes(content)
	read := buffer.New(16)
	read.WriteUint32(uint32(filesys.FileReadOp))
	read.WriteInt64(0)
	read.WriteInt32(block)
	for _, call := range []struct {
		op   string
		args *buffer.Buffer
	}{{"write", write}, {"read", read}} {
		peer.prepareCall(key, call.args)
		peer.roundTrips(200) // every pooled buffer a call may draw has grown to the payload
		before := buffer.Stats()
		n := testing.AllocsPerRun(500, func() { peer.roundTrips(1) })
		if d := buffer.Stats().Sub(before); n > 0 || d.LargeAllocs != 0 {
			t.Errorf("one served 64 KiB %s over a unix socket allocates %.2f objects, and 500 made %d payload-sized arrays; want 0 and 0", call.op, n, d.LargeAllocs)
		}
	}
	if got, err := f.Read(0, block); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("file after the writes: %d bytes, %v", len(got), err)
	}
	if _, err := peer.conn.Write(peer.call); err != nil { // one more read, looked at
		t.Fatal(err)
	}
	reply := peer.next(msgReply)
	if end := len(reply) - 1; end < block || !bytes.Equal(reply[end-block:end], content) { // ... content, no doors
		t.Fatalf("a %d-byte read reply does not end in the file's content", len(reply))
	}
}

func TestDurableWriteAllocs(t *testing.T) {
	// The server side of a 1 KiB write to a WAL-backed store, end to end as
	// above plus what durability adds: the handler blocks on its group
	// commit, so the call is never promoted and runs on a goroutine of its
	// own; the record is queued, framed, written, fsynced and acknowledged
	// by the committer. None of it allocates. (A goroutine start, a pending
	// with its signal channel and a queue sliding off its array did: about
	// 220 bytes a write.)
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	a := newMachineCfg(t, "A", Config{}, filesys.RegisterAll)
	store := filesys.NewStore()
	wal, err := filesys.OpenWAL(t.TempDir(), store, filesys.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wal.Close() })
	f, err := filesys.NewServiceWithStore(a.env, store).Create("durable")
	if err != nil {
		t.Fatal(err)
	}
	a.srv.PublishRoot("durable", f.Obj)
	peer := dialRawPeer(t, a.srv.Addr())
	key := peer.importRoot("durable")

	content := bytes.Repeat([]byte{0x17}, 1<<10)
	write := buffer.New(len(content) + 16)
	write.WriteUint32(uint32(filesys.FileWriteOp))
	write.WriteInt64(0)
	write.WriteBytes(content)
	peer.prepareCall(key, write)
	inline0 := scstats.GaugeFor("dispatch.inline_hits").Value()
	peer.roundTrips(200)
	if n := testing.AllocsPerRun(500, func() { peer.roundTrips(1) }); n > 0 {
		t.Errorf("one served durable 1 KiB write allocates %.2f objects, want 0", n)
	}
	if d := scstats.GaugeFor("dispatch.inline_hits").Value() - inline0; d != 0 {
		t.Errorf("%d durable writes ran on the reader goroutine, want none: they block on fsync", d)
	}
	if got, err := f.Read(0, int32(len(content))); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("file after the run: %d bytes, %v", len(got), err)
	}
}
