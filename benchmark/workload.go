package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"

	"repro/internal/core"
	"repro/internal/filesys"
)

// ---------------------------------------------------------------------
// File contents. Every byte of every file is a deterministic function of
// (seed, file, content version, offset), so every read the load
// generator issues can be checked without remembering what was written:
// the caller that owns a file remembers one small version number per
// block.

// contentKey names the contents of one block of one file at one version.
func contentKey(seed uint64, file int, version uint32) uint64 {
	return mix64(seed ^ mix64(uint64(file)<<32|uint64(version)))
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// expectFlip is XORed into the first expected byte of every verified
// read. It is zero except in the test that proves verification is on: a
// run whose expectation is off by one bit must report failures.
var expectFlip byte

// fillPattern writes the bytes that belong at absolute offset off (a
// multiple of 8) under key into p (a multiple of 8 long).
func fillPattern(p []byte, key uint64, off int64) {
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], mix64(key+uint64(off+int64(i))))
	}
}

// checkPattern reports whether p holds exactly those bytes.
func checkPattern(p []byte, key uint64, off int64) bool {
	if len(p)%8 != 0 {
		return false
	}
	for i := 0; i+8 <= len(p); i += 8 {
		want := mix64(key + uint64(off+int64(i)))
		if i == 0 {
			want ^= uint64(expectFlip)
		}
		if binary.LittleEndian.Uint64(p[i:]) != want {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Files.

const (
	kib        = 1 << 10
	smallBlock = 1 * kib  // the small read/write unit
	bulkBlock  = 64 * kib // the bulk read/write unit, and the preload chunk
)

// fileSpec describes one preloaded file. block is the unit in which its
// contents are versioned: the size of the writes it receives (a file
// nobody writes is one block).
type fileSpec struct {
	name        string
	size, block int64
}

// A file is a preloaded file as its owner sees it: the stub, and what the
// next verified operation on it must observe. A file that is written has
// exactly one owning caller, so none of this needs a lock.
type file struct {
	fileSpec
	id     int
	stub   filesys.File
	vers   []uint32 // content version of each block
	writes uint32   // the server's version(): writes applied so far
}

// preload creates every file on the server and writes version-0 contents
// in bulkBlock chunks, sixteen files at a time (so a -wal server
// group-commits them), returning the files in spec order.
func preload(fs filesys.FileSystem, seed uint64, specs []fileSpec) ([]*file, error) {
	files := make([]*file, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, 16) // concurrent preloaders; matches the widest writer workload
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			files[i], errs[i] = preloadOne(fs, seed, i, sp)
		}()
	}
	wg.Wait()
	return files, errors.Join(errs...)
}

func preloadOne(fs filesys.FileSystem, seed uint64, id int, sp fileSpec) (*file, error) {
	stub, err := fs.Create(sp.name)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", sp.name, err)
	}
	f := &file{fileSpec: sp, id: id, stub: stub, vers: make([]uint32, sp.size/sp.block)}
	key := contentKey(seed, id, 0)
	buf := make([]byte, min(sp.size, bulkBlock))
	for off := int64(0); off < sp.size; off += int64(len(buf)) {
		fillPattern(buf, key, off)
		n, err := stub.Write(off, buf)
		if err != nil || int(n) != len(buf) {
			return nil, fmt.Errorf("preload %s at %d: wrote %d of %d: %v", sp.name, off, n, len(buf), err)
		}
		f.writes++
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Operations.

type opKind uint8

const (
	opVersion opKind = iota
	opStat
	opRead
	opWrite
)

// An op is one generated call. file indexes the issuing caller's own file
// list; bulk marks the calls kept out of the latency figures of a mixed
// workload (they are its payload, the small calls are its victims).
type op struct {
	kind opKind
	file int
	off  int64
	n    int32
	bulk bool
}

// A caller is one sequential source of calls with its own seeded op
// stream: a closed-loop caller issues them back to back, an open-loop
// worker on its arrival schedule.
type caller struct {
	seed  uint64
	rng   *rand.Rand
	files []*file
	gen   func(c *caller) op
	count uint64 // ops generated so far
	last  op     // the last write generated, for read-back
	zipf  *rand.Zipf
	wbuf  []byte
	// opts is the invocation context of the call being issued; the traced
	// run sets it per call to hang the program's spans under its own.
	opts []core.CallOption
}

func (c *caller) next() op {
	o := c.gen(c)
	c.count++
	return o
}

var errWrong = errors.New("wrong result")

// do executes o through the generated stubs and checks what came back
// against what the file must hold. It returns the file bytes that were
// read or written and verified.
func (c *caller) do(o op) (payload int, err error) {
	f := c.files[o.file]
	stub := f.stub
	if c.opts != nil {
		stub = stub.With(c.opts...)
	}
	switch o.kind {
	case opVersion:
		v, err := stub.Version()
		if err != nil {
			return 0, err
		}
		if v != f.writes {
			return 0, fmt.Errorf("%w: %s.version() = %d, want %d", errWrong, f.name, v, f.writes)
		}
	case opStat:
		info, err := stub.Stat()
		if err != nil {
			return 0, err
		}
		if info.Name != f.name || info.Size != f.size || info.Version != f.writes {
			return 0, fmt.Errorf("%w: %s.stat() = %+v, want size %d version %d", errWrong, f.name, info, f.size, f.writes)
		}
	case opRead:
		data, err := stub.Read(o.off, o.n)
		if err != nil {
			return 0, err
		}
		key := contentKey(c.seed, f.id, f.vers[o.off/f.block])
		if len(data) != int(o.n) || !checkPattern(data, key, o.off) {
			return 0, fmt.Errorf("%w: %s.read(%d, %d) returned %d bytes that do not match version %d",
				errWrong, f.name, o.off, o.n, len(data), f.vers[o.off/f.block])
		}
		return len(data), nil
	case opWrite:
		b := o.off / f.block
		f.vers[b]++
		buf := c.wbuf[:o.n]
		fillPattern(buf, contentKey(c.seed, f.id, f.vers[b]), o.off)
		n, err := stub.Write(o.off, buf)
		if err != nil {
			return 0, err
		}
		f.writes++
		if n != o.n {
			return 0, fmt.Errorf("%w: %s.write(%d, %d bytes) = %d", errWrong, f.name, o.off, o.n, n)
		}
		return int(n), nil
	}
	return 0, nil
}

// ---------------------------------------------------------------------
// The five workloads.

// A workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string

	server serverSpec
	// subcontract is the client-side subcontract the file objects arrive
	// on; its always-on scstats histogram is the "invoke" layer.
	subcontract string

	files   []fileSpec
	callers int // concurrent callers (closed loop) or workers (open loop: the in-flight cap)
	// assign gives caller i its files (indexes into files) and generator.
	assign func(i int) (files []int, gen func(*caller) op)

	// openRate > 0 makes the workload open loop: Poisson arrivals at this
	// many calls per second over all workers, each call timed from the
	// moment it was due.
	openRate float64

	// floor is the bare ping-pong this workload's median call is compared
	// with: same transport, the request and reply sizes of its median op.
	floor floorSpec
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// sharedFiles is the read-only set the small-call mixes run over.
func sharedFiles() []fileSpec {
	fs := make([]fileSpec, 64)
	for i := range fs {
		fs[i] = fileSpec{name: fmt.Sprintf("f%02d", i), size: 64 * kib, block: 64 * kib}
	}
	return fs
}

func genVersion(c *caller) op { return op{kind: opVersion, file: c.rng.IntN(len(c.files))} }

// genSmall issues stat with probability statShare, else a 1 KiB read at a
// random 1 KiB-aligned offset.
func genSmall(statShare float64) func(*caller) op {
	return func(c *caller) op {
		fi := c.rng.IntN(len(c.files))
		if c.rng.Float64() < statShare {
			return op{kind: opStat, file: fi}
		}
		blocks := int(c.files[fi].size / smallBlock)
		return op{kind: opRead, file: fi, off: int64(c.rng.IntN(blocks)) * smallBlock, n: smallBlock}
	}
}

// genBulk alternates a 64 KiB read and a 64 KiB write on the caller's own
// file.
func genBulk(c *caller) op {
	f := c.files[0]
	o := op{kind: opRead, off: int64(c.rng.IntN(len(f.vers))) * bulkBlock, n: bulkBlock, bulk: true}
	if c.count%2 == 1 {
		o.kind = opWrite
	}
	return o
}

// genDurable writes 1 KiB at offsets cycling through the caller's own
// file; every 16th op reads back the last acknowledged write, which must
// be there.
func genDurable(c *caller) op {
	if c.count%16 == 15 {
		o := c.last
		o.kind = opRead
		return o
	}
	writes := c.count - c.count/16
	c.last = op{kind: opWrite, off: int64(writes%uint64(len(c.files[0].vers))) * smallBlock, n: smallBlock}
	return c.last
}

// genCached reads a 1 KiB block chosen Zipf(1.1) over the caller's files;
// one op in 64 writes the block instead, invalidating the file's cached
// replies. Rank r lives in file r mod n, so the hot blocks are spread
// evenly over the files whatever the seed: the seed picks the sequence of
// draws, not how much one write invalidates.
func genCached(c *caller) op {
	blocks := int(c.files[0].size / smallBlock)
	if c.zipf == nil {
		c.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(len(c.files)*blocks-1))
	}
	rank := int(c.zipf.Uint64())
	o := op{kind: opRead, file: rank % len(c.files), off: int64(rank/len(c.files)) * smallBlock, n: smallBlock}
	if c.rng.IntN(64) == 0 {
		o.kind = opWrite
	}
	return o
}

// workloads returns the five workloads in the order they are reported.
// The why strings are the ones BENCHMARK.json carries.
func workloads() []*workload {
	shared := sharedFiles()

	bulkFiles := append(append([]fileSpec(nil), shared...),
		fileSpec{name: "bulk0", size: 1024 * kib, block: bulkBlock},
		fileSpec{name: "bulk1", size: 1024 * kib, block: bulkBlock})

	var durable []fileSpec
	for i := 0; i < 16; i++ {
		durable = append(durable, fileSpec{name: fmt.Sprintf("w%02d", i), size: 256 * kib, block: smallBlock})
	}
	var cached []fileSpec
	for i := 0; i < 64; i++ {
		cached = append(cached, fileSpec{name: fmt.Sprintf("c%02d", i), size: 64 * kib, block: smallBlock})
	}

	return []*workload{
		{
			name:        "null_c1",
			why:         "one closed-loop caller of file.version() over loopback TCP: every fixed per-call cost is serial and batching, WAL, cache and bulk paths are bypassed",
			server:      serverSpec{flavor: "plain"},
			subcontract: "simplex",
			files:       shared,
			callers:     1,
			assign:      func(int) ([]int, func(*caller) op) { return seq(len(shared)), genVersion },
			floor:       floorSpec{},
		},
		{
			name:        "small_open",
			why:         "open-loop Poisson arrivals of 70% stat / 30% 1 KiB reads at a fixed rate, at most 256 in flight: frames coalesce and dispatch queues, so per-call CPU and queueing set the numbers",
			server:      serverSpec{flavor: "plain"},
			subcontract: "simplex",
			files:       shared,
			callers:     256,
			assign:      func(int) ([]int, func(*caller) op) { return seq(len(shared)), genSmall(0.7) },
			openRate:    smallOpenRate,
			floor:       floorSpec{},
		},
		{
			name:        "bulk_mixed_c8",
			why:         "same-machine unix socket, two callers alternating 64 KiB reads and writes beside six small-call callers: per-byte costs dominate and the small calls are the head-of-line victims",
			server:      serverSpec{flavor: "plain", unix: true},
			subcontract: "simplex",
			files:       bulkFiles,
			callers:     8,
			assign: func(i int) ([]int, func(*caller) op) {
				if i < 2 {
					return []int{len(shared) + i}, genBulk
				}
				return seq(len(shared)), genSmall(0.5)
			},
			floor: floorSpec{unix: true},
		},
		{
			name:        "durable_write_c16",
			why:         "sixteen closed-loop callers writing 1 KiB to a -wal server, every 16th op a read-back: the handler blocks on group-commit fsync, so WAL batching and dispatch's blocking path do the work",
			server:      serverSpec{flavor: "plain", wal: true},
			subcontract: "simplex",
			files:       durable,
			callers:     16,
			assign:      func(i int) ([]int, func(*caller) op) { return []int{i}, genDurable },
			floor:       floorSpec{req: smallBlock},
		},
		{
			name:        "cached_read_c2",
			why:         "caching subcontract, two callers reading 1 KiB blocks Zipf(1.1) with 1 op in 64 an invalidating write: hits are served by the client machine's cache manager without touching netd",
			server:      serverSpec{flavor: "caching"},
			subcontract: "caching",
			files:       cached,
			callers:     2,
			assign: func(i int) ([]int, func(*caller) op) {
				var mine []int
				for f := i; f < len(cached); f += 2 {
					mine = append(mine, f)
				}
				return mine, genCached
			},
			floor: floorSpec{reply: smallBlock},
		},
	}
}

// smallOpenRate is small_open's fixed offered load in calls per second:
// about a third of what 64 closed-loop callers of the same mix sustain on
// the reference host (165–210 k/s over the probes taken when the rate was
// fixed; loadgen.sat_calls_per_s re-measures that figure in every traced
// run). At this rate some eighteen calls are in flight on average, netd
// puts four frames in a client flush and six or seven in a server flush,
// two calls share a thread wake-up and one in sixteen queues in dispatch —
// the regime the workload exists for (benchmark/README.md has the same
// figures at 20 000/s and 40 000/s) — while the open loop itself sustains
// more than twice the rate without a failure. It is a constant of the
// benchmark, not a knob: a different rate is a different workload.
const smallOpenRate = 60000

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newCallers builds w's callers over the preloaded files. Each caller's
// op stream is seeded from (seed, workload, caller index) alone. An
// open-loop workload gets one more caller than its in-flight cap: the
// last only generates ops, the others only execute them, so all of them
// must be assigned the same files.
func (w *workload) newCallers(seed uint64, files []*file) []*caller {
	n := w.callers
	if w.openRate > 0 {
		n++ // the open-loop dispatcher's op generator; see loadgen.runOpen
	}
	cs := make([]*caller, n)
	for i := range cs {
		idx, gen := w.assign(i)
		c := &caller{
			seed: seed,
			rng:  rand.New(rand.NewPCG(seed, streamID(w.name, "ops", i))),
			gen:  gen,
			wbuf: make([]byte, bulkBlock),
		}
		for _, fi := range idx {
			c.files = append(c.files, files[fi])
		}
		cs[i] = c
	}
	return cs
}

// streamID derives the second PCG word of a named random stream, so the
// op mix and the arrival schedule of one worker are independent.
func streamID(workload, stream string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", workload, stream, i)
	return h.Sum64()
}
