package scstats

// A packed registry sample: what a windowed delta (telemetry's /statz) reads
// of the *older* of two samples — the counters it subtracts and each
// histogram's occupied buckets — taken straight off the live registry into
// two flat arrays the caller reuses, so a sampler that keeps minutes of
// history allocates nothing once its storage has grown to fit. A full
// Snapshot costs 40 bytes a bucket in append-doubled slices, every second,
// and in a process that rarely collects that garbage is as resident as what
// is retained.

// PackedRow is one histogram of a packed sample, with N buckets of its own
// in the cell array the rows share, in row order. C carries the counters a
// delta subtracts; one it starts to read must be added here and in
// telemetry's unpack (TestStatzRingPacksSamples moves every exported counter
// of a block and fails on one that is not carried).
type PackedRow struct {
	Kind     byte // 's'ubcontract aggregate, 'o'p of the subcontract above it, 'p'eer, 'h' named histogram
	Overflow bool // 'o': the shared slot of every op ≥ maxOps
	Op       uint32
	N        int32
	Name     string
	C        [8]uint64 // 's': calls, errors, retries, hits, misses, coalesced, failovers, reconnects; 'p': calls, errors
}

// Pack appends a sample of every interned subcontract, peer and named
// histogram to rows and cells and returns them.
func Pack(rows []PackedRow, cells []BucketCount) ([]PackedRow, []BucketCount) {
	add := func(r PackedRow, counts *[histBuckets]uint64) {
		from := len(cells)
		for i, c := range counts {
			if c != 0 {
				cells = append(cells, BucketCount{Idx: uint16(i), Count: c})
			}
		}
		if r.N = int32(len(cells) - from); r.N > 0 || r.Kind != 'o' { // an op nobody has called yet is no row
			rows = append(rows, r)
		}
	}
	for _, v := range registry.Range {
		s := v.(*Stats)
		var ops []*Hist
		if t := s.ops.Load(); t != nil {
			ops = *t
		}
		var counts [histBuckets]uint64
		s.lat.addTo(&counts)
		for _, h := range ops {
			if h != nil {
				h.addTo(&counts)
			}
		}
		add(PackedRow{Kind: 's', Name: s.name, C: [8]uint64{s.Calls.Load(), s.Errors.Load(),
			s.Retries.Load(), s.Hits.Load(), s.Misses.Load(), s.Coalesced.Load(),
			s.Failovers.Load(), s.Reconnects.Load()}}, &counts)
		for op, h := range ops {
			if h != nil {
				counts = [histBuckets]uint64{}
				h.addTo(&counts)
				add(PackedRow{Kind: 'o', Op: uint32(op), Overflow: op == maxOps}, &counts)
			}
		}
	}
	for _, v := range peers.Range {
		p := v.(*PeerStats)
		var counts [histBuckets]uint64
		p.lat.addTo(&counts)
		add(PackedRow{Kind: 'p', Name: p.addr, C: [8]uint64{p.Calls.Load(), p.Errors.Load()}}, &counts)
	}
	for _, v := range hists.Range {
		nh := v.(*namedHist)
		var counts [histBuckets]uint64
		nh.h.addTo(&counts)
		add(PackedRow{Kind: 'h', Name: nh.name}, &counts)
	}
	return rows, cells
}
