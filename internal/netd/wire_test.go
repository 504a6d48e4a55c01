package netd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/buffer"
	"repro/internal/kernel"
	"repro/internal/sock"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{7}, 1<<16)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, p := range payloads {
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), p) {
			t.Fatalf("frame %d: %d bytes, want %d", i, got.Size(), len(p))
		}
		buffer.Put(got)
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("read past end = %v, want EOF", err)
	}
}

func TestFrameQuick(t *testing.T) {
	f := func(p []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, p); err != nil {
			return false
		}
		got, err := readFrame(bufio.NewReader(&buf))
		defer buffer.Put(got)
		return err == nil && bytes.Equal(got.Bytes(), p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	var buf bytes.Buffer
	// Forge a header claiming a frame beyond maxFrame.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut++ { // inside the body, then inside the header
		trunc := bufio.NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-cut]))
		if _, err := readFrame(trunc); err == nil || err == io.EOF {
			t.Fatalf("frame truncated by %d bytes: err = %v, want a truncation error", cut, err)
		}
	}
}

func TestWireBufferRoundTrip(t *testing.T) {
	// Flatten a buffer with bytes + doors through one server's export
	// table and reconstitute it through the same server (home unwrap).
	k := kernel.New("m")
	dom := k.NewDomain("netd")
	srv, err := Start(dom, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	app := k.NewDomain("app")
	h, _ := app.CreateDoor(func(req *buffer.Buffer) (*buffer.Buffer, error) {
		return buffer.New(0), nil
	}, nil)

	in := buffer.New(64)
	in.WriteString("hello")
	if err := app.CopyToBuffer(h, in); err != nil {
		t.Fatal(err)
	}
	in.WriteUint32(42)

	// Exports are attributed to the session of the connection they ship
	// over; fabricate one for this in-process round trip.
	sess := &session{refs: make(map[uint64]int)}
	c := &conn{sess: sess}

	wire := buffer.New(128)
	if err := srv.putWireBuffer(wire, in, c); err != nil {
		t.Fatal(err)
	}
	out := wire
	if err := srv.getWireBuffer(out); err != nil {
		t.Fatal(err)
	}
	if s, err := out.ReadString(); err != nil || s != "hello" {
		t.Fatalf("string = %q, %v", s, err)
	}
	got, err := app.AdoptFromBuffer(out)
	if err != nil {
		t.Fatal(err)
	}
	if !app.SameDoor(h, got) {
		t.Fatal("door did not come home to the same kernel object")
	}
	if v, err := out.ReadUint32(); err != nil || v != 42 {
		t.Fatalf("uint32 = %d, %v", v, err)
	}
}

func TestPeerDropsConnectionMidCall(t *testing.T) {
	// A fake peer that accepts the connection, reads one frame, and slams
	// the connection shut: the in-flight call must fail promptly with a
	// communications error rather than hanging until the timeout.
	ln, err := sock.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		in, _ := readFrame(bufio.NewReader(conn))
		buffer.Put(in)
		_ = conn.Close()
	}()

	k := kernel.New("m")
	// A long call timeout: the drop, not the timeout, must end the call.
	srv, err := Start(k.NewDomain("netd"), "127.0.0.1:0", With(Config{CallTimeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ref, err := srv.importDesc(descriptor{Addr: ln.Addr(), Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	app := k.NewDomain("app")
	h := app.AdoptRef(ref)

	start := time.Now()
	_, err = app.Call(h, buffer.New(0))
	if err == nil {
		t.Fatal("call succeeded against a dropped connection")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dropped connection took %v to surface", elapsed)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
}

func TestGarbageConnectionIgnored(t *testing.T) {
	// A peer sending garbage must not take the server down.
	k := kernel.New("m")
	srv, err := Start(k.NewDomain("netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := sock.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0x04, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	time.Sleep(10 * time.Millisecond)

	// The server still serves roots.
	app := k.NewDomain("app")
	_ = app
	if srv.Exports() != 0 {
		t.Fatalf("garbage created exports: %d", srv.Exports())
	}
}

// writeFrame sends one length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}
