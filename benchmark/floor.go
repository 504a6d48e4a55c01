package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The floor: what the host charges for the cheapest possible version of
// what a remote call does, with none of our code on the path. A child
// process (the benchmark re-executed with -floor-peer, so the floor
// crosses a process boundary like the real call) echoes length-prefixed
// messages over TCP and a unix socket; the parent plays ping-pong with it
// at a workload's request and reply sizes. The append+fsync floor needs
// no peer: it is one file in the WAL directory's filesystem.

// floorSpec is the ping-pong a workload is compared with.
type floorSpec struct {
	unix       bool
	req, reply int // payload bytes each way
}

// Wire format of the floor peer, per message:
//
//	request: [req u32][reply u32] then req bytes
//	reply:   reply bytes
const floorHeader = 8

// runFloorPeer is the child: it listens on loopback TCP (port of its own
// choosing) and on sockPath, prints both addresses on one line, and
// echoes until killed.
func runFloorPeer(sockPath string) error {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	unix, err := net.Listen("unix", sockPath)
	if err != nil {
		return err
	}
	fmt.Printf("floor-peer: tcp %s unix %s\n", tcp.Addr(), sockPath)
	for _, ln := range []net.Listener{tcp, unix} {
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go floorEcho(conn)
			}
		}()
	}
	select {} // the parent kills the process group
}

func floorEcho(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 128*kib)
	var hdr [floorHeader]byte
	buf := make([]byte, 128*kib)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		req := binary.LittleEndian.Uint32(hdr[0:])
		reply := binary.LittleEndian.Uint32(hdr[4:])
		if int(req) > len(buf) || int(reply) > len(buf) || reply == 0 {
			return
		}
		if _, err := io.ReadFull(br, buf[:req]); err != nil {
			return
		}
		if _, err := conn.Write(buf[:reply]); err != nil {
			return
		}
	}
}

// A floorPeer is the parent's handle on the child.
type floorPeer struct {
	*child
	tcpAddr, unixPath string
}

func startFloorPeer(dir string) (*floorPeer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, "floor.sock")
	c, err := startChild("floor-peer", self, nil, "-floor-peer", sock)
	if err != nil {
		return nil, err
	}
	rest, err := c.awaitLine("floor-peer: tcp ", 10*time.Second)
	if err != nil {
		c.stop()
		return nil, err
	}
	return &floorPeer{child: c, tcpAddr: strings.Fields(rest)[0], unixPath: sock}, nil
}

// floorResult is one floor measurement, in microseconds.
type floorResult struct {
	p50, mean float64
	samples   int
}

func resultOf(h *hist) floorResult {
	var d dist
	d.add(h)
	return floorResult{p50: d.quantile(0.5) / 1e3, mean: d.mean() / 1e3, samples: int(d.n)}
}

// floorChunk is the unit a ping-pong is judged in; see pingPong.
const floorChunk = 100 * time.Millisecond

// pingPong plays length-prefixed ping-pong for d and reports the round
// trip of the best floorChunk: the one with the lowest median. A floor is
// the least the host charges, and what a virtual CPU charges to wake its
// idle neighbour falls severalfold over the first few hundred
// milliseconds of steady traffic (the hypervisor learns to poll before it
// halts) — the first chunks measure how long the host had been idle, the
// best chunk measures the host. The reply is at least one byte (an empty
// reply cannot be waited for), which is also what a reply frame's header
// costs.
func (p *floorPeer) pingPong(spec floorSpec, d time.Duration) (floorResult, error) {
	network, addr := "tcp", p.tcpAddr
	if spec.unix {
		network, addr = "unix", p.unixPath
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return floorResult{}, err
	}
	defer conn.Close()
	reply := max(spec.reply, 1)
	msg := make([]byte, floorHeader+spec.req)
	binary.LittleEndian.PutUint32(msg[0:], uint32(spec.req))
	binary.LittleEndian.PutUint32(msg[4:], uint32(reply))
	in := make([]byte, reply)
	var best floorResult
	total := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		var h hist
		for chunkEnd := time.Now().Add(min(floorChunk, d)); time.Now().Before(chunkEnd); {
			t0 := time.Now()
			if _, err := conn.Write(msg); err != nil {
				return floorResult{}, err
			}
			if _, err := io.ReadFull(conn, in); err != nil {
				return floorResult{}, err
			}
			h.record(int64(time.Since(t0)))
		}
		r := resultOf(&h)
		total += r.samples
		if best.samples == 0 || r.p50 < best.p50 {
			best = r
		}
	}
	best.samples = total
	return best, nil
}

// fsyncFloor appends 1 KiB and fsyncs, repeatedly, for d in a scratch
// file under dir, and reports the per-record cost: the least a durable
// write can cost on this filesystem without group commit.
func fsyncFloor(dir string, d time.Duration) (floorResult, error) {
	f, err := os.CreateTemp(dir, "fsync-floor-*")
	if err != nil {
		return floorResult{}, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, kib)
	var h hist
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := f.Write(rec); err != nil {
			return floorResult{}, err
		}
		if err := f.Sync(); err != nil {
			return floorResult{}, err
		}
		h.record(int64(time.Since(t0)))
	}
	return resultOf(&h), nil
}

// mid averages a measurement taken before a window with one taken after.
func mid(a, b floorResult) floorResult {
	return floorResult{p50: (a.p50 + b.p50) / 2, mean: (a.mean + b.mean) / 2, samples: a.samples + b.samples}
}
