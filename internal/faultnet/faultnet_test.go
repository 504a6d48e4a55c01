package faultnet

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/sock"
)

// pipePair dials through fn to a plain echo-less listener and returns
// both ends: the fault-controlled client conn and the raw server conn.
func pipePair(t *testing.T, fn *Net) (client, server sock.Stream) {
	t.Helper()
	ln, err := sock.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan sock.Stream, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err = fn.Dialer(nil)(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	select {
	case server = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("accept never completed")
	}
	t.Cleanup(func() { server.Close() })
	return client, server
}

func TestRefuseDials(t *testing.T) {
	fn := New()
	fn.RefuseDials(true)
	if _, err := fn.Dialer(nil)("127.0.0.1:1"); !errors.Is(err, ErrRefused) {
		t.Fatalf("refused dial = %v, want ErrRefused", err)
	}
	fn.RefuseDials(false)
	ln, err := sock.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			c.Close()
		}
	}()
	c, err := fn.Dialer(nil)(ln.Addr())
	if err != nil {
		t.Fatalf("healed dial = %v", err)
	}
	c.Close()
}

func TestSeverInboundStallsAndHeals(t *testing.T) {
	fn := New()
	client, server := pipePair(t, fn)

	// Normal delivery first.
	if _, err := server.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "one" {
		t.Fatalf("pre-sever read = %q, %v", buf[:n], err)
	}

	fn.SeverInbound()
	if _, err := server.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		n, err := client.Read(buf)
		if err == nil {
			got <- string(buf[:n])
		}
	}()
	select {
	case s := <-got:
		t.Fatalf("read %q through a severed link", s)
	case <-time.After(100 * time.Millisecond):
	}
	fn.Heal()
	select {
	case s := <-got:
		if s != "two" {
			t.Fatalf("post-heal read = %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("heal did not wake the stalled reader")
	}
}

func TestSeverReachesBlockedReader(t *testing.T) {
	// Only the client's end is wrapped, and its reader is already blocked
	// in the socket when the partition comes: the next frame the raw end
	// sends must not reach it until Heal, and after Heal reads block and
	// deliver as before.
	fn := New()
	client, server := pipePair(t, fn)
	got := make(chan string, 2)
	go func() {
		buf := make([]byte, 8)
		for i := 0; i < 2; i++ {
			n, err := client.Read(buf)
			if err != nil {
				got <- err.Error()
				return
			}
			got <- string(buf[:n])
		}
	}()
	time.Sleep(20 * time.Millisecond) // the reader is in the socket read
	fn.Partition()
	if _, err := server.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		t.Fatalf("a reader blocked before the partition read %q through it", s)
	case <-time.After(100 * time.Millisecond):
	}
	fn.Heal()
	for _, want := range []string{"after", "again"} {
		select {
		case s := <-got:
			if s != want {
				t.Fatalf("post-heal read = %q, want %q", s, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no post-heal read of %q", want)
		}
		if want == "after" {
			time.Sleep(20 * time.Millisecond) // the next read blocks
			if _, err := server.Write([]byte("again")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSeverOutboundDiscards(t *testing.T) {
	fn := New()
	client, server := pipePair(t, fn)
	fn.SeverOutbound()
	if n, err := client.Write([]byte("lost")); err != nil || n != 4 {
		t.Fatalf("blackholed write = %d, %v", n, err)
	}
	_ = server.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 8)
	if n, err := server.Read(buf); err == nil {
		t.Fatalf("peer received %q through severed outbound", buf[:n])
	}
	fn.Heal()
	if _, err := client.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	_ = server.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "back" {
		t.Fatalf("post-heal read = %q, %v", buf[:n], err)
	}
}

func TestTruncateNextWrite(t *testing.T) {
	fn := New()
	client, server := pipePair(t, fn)
	fn.TruncateNextWrite()
	if _, err := client.Write([]byte("12345678")); err == nil {
		t.Fatal("truncated write reported success")
	}
	data, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Fatalf("peer saw %d bytes of 8, want 4 (truncated mid-frame)", len(data))
	}
	if fn.Live() != 0 {
		t.Fatalf("truncation left %d live conns", fn.Live())
	}
}

func TestKillAfterWrites(t *testing.T) {
	fn := New()
	client, server := pipePair(t, fn)
	fn.KillAfterWrites(2)
	if _, err := client.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("b")); err != nil {
		t.Fatal(err)
	}
	// The second write landed and then the conn died.
	data, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "ab" {
		t.Fatalf("peer saw %q", data)
	}
	if _, err := client.Write([]byte("c")); err == nil {
		t.Fatal("write on killed conn succeeded")
	}
}

func TestCloseAllWakesStalledReaders(t *testing.T) {
	fn := New()
	client, _ := pipePair(t, fn)
	fn.SeverInbound()
	done := make(chan error, 1)
	go func() {
		_, err := client.Read(make([]byte, 4))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	fn.CloseAll()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read on killed conn succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CloseAll left a reader stranded")
	}
	if fn.Live() != 0 {
		t.Fatalf("live conns after CloseAll = %d", fn.Live())
	}
}

func TestSetDelay(t *testing.T) {
	fn := New()
	client, server := pipePair(t, fn)
	fn.SetDelay(50 * time.Millisecond)
	if _, err := server.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 8)
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("delayed read returned in %v", d)
	}
}
