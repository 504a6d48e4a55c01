package scstats

import "sort"

// The one walk over the registry's tables and the live snapshot it makes,
// Take: /metrics, both sides of a /statz window and AllSnapshots read the
// registry this one way.

// row is one row of the walk: a subcontract ('s', its counters and the
// sum of all its histograms), one of its ops ('o', following it), a peer
// ('p') or a named histogram ('h').
type row struct {
	Kind     byte
	Overflow bool // 'o': the shared slot of every op ≥ maxOps
	Op       uint32
	Name     string
	// 's': the Snapshot counters in field order, Calls … Coalesced;
	// 'p': Calls, Errors.
	C [10]uint64
}

// walk calls fn once per row of the registry's tables with the live
// histograms the row sums: lat, and for a subcontract its op table (nil
// entries included). It is the only reader of the three tables besides
// Reset; an 's' row comes before its 'o' rows, otherwise the order is the
// tables' own.
func walk(fn func(r row, lat *Hist, ops []*Hist)) {
	for _, v := range registry.Range {
		s := v.(*Stats)
		var ops []*Hist
		if t := s.ops.Load(); t != nil {
			ops = *t
		}
		fn(row{Kind: 's', Name: s.name, C: [10]uint64{s.Calls.Load(), s.Errors.Load(),
			s.DeadlineExceeded.Load(), s.Cancelled.Load(), s.Retries.Load(), s.Failovers.Load(),
			s.Reconnects.Load(), s.Hits.Load(), s.Misses.Load(), s.Coalesced.Load()}}, s.lat, ops)
		for op, h := range ops {
			if h != nil {
				fn(row{Kind: 'o', Op: uint32(op), Overflow: op == maxOps}, h, nil)
			}
		}
	}
	for _, v := range peers.Range {
		p := v.(*PeerStats)
		fn(row{Kind: 'p', Name: p.addr, C: [10]uint64{p.Calls.Load(), p.Errors.Load()}}, p.lat, nil)
	}
	for _, v := range hists.Range {
		nh := v.(*namedHist)
		fn(row{Kind: 'h', Name: nh.name}, nh.h, nil)
	}
}

// sum adds the shards of lat and of every op histogram into counts.
func sum(counts *[histBuckets]uint64, lat *Hist, ops []*Hist) {
	lat.addTo(counts)
	for _, h := range ops {
		if h != nil {
			h.addTo(counts)
		}
	}
}

// Sample is the registry as one walk saw it, each list sorted by name.
type Sample struct {
	Subcontracts []Snapshot
	Peers        []PeerSnapshot
	Hists        []NamedHistSnapshot
}

// Take snapshots the live registry. A bucket's exemplar is the first one
// set among the histograms its row sums.
func Take() Sample {
	var s Sample
	walk(func(r row, lat *Hist, ops []*Hist) {
		var counts [histBuckets]uint64
		sum(&counts, lat, ops)
		s.add(r, snapshotOf(&counts, func(i int) (uint64, uint64) {
			tr, tk := lat.exemplar(i)
			for _, h := range ops {
				if h != nil && tr == 0 {
					tr, tk = h.exemplar(i)
				}
			}
			return tr, tk
		}))
	})
	return s.sorted()
}

// add is the assembler: it appends row r, whose histograms sum to h.
func (s *Sample) add(r row, h HistSnapshot) {
	c := r.C
	switch r.Kind {
	case 's':
		s.Subcontracts = append(s.Subcontracts, Snapshot{Name: r.Name, Calls: c[0], Errors: c[1],
			DeadlineExceeded: c[2], Cancelled: c[3], Retries: c[4], Failovers: c[5], Reconnects: c[6],
			Hits: c[7], Misses: c[8], Coalesced: c[9], Lat: h})
	case 'o':
		if h.Count > 0 {
			sc := &s.Subcontracts[len(s.Subcontracts)-1]
			sc.Ops = append(sc.Ops, OpSnapshot{Op: r.Op, Overflow: r.Overflow, Lat: h})
		}
	case 'p':
		s.Peers = append(s.Peers, PeerSnapshot{Addr: r.Name, Calls: c[0], Errors: c[1], Lat: h})
	case 'h':
		s.Hists = append(s.Hists, NamedHistSnapshot{Name: r.Name, Hist: h})
	}
}

func (s Sample) sorted() Sample {
	sort.Slice(s.Subcontracts, func(i, j int) bool { return s.Subcontracts[i].Name < s.Subcontracts[j].Name })
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Addr < s.Peers[j].Addr })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// AllSnapshots returns a snapshot of every interned subcontract, sorted
// by name, including blocks that have seen no calls, so every
// instrumented subcontract's series exist from process start.
func AllSnapshots() []Snapshot { return Take().Subcontracts }

// HistSnapshots returns every interned named histogram, sorted by name.
// Idle histograms are included so their series exist from process start.
func HistSnapshots() []NamedHistSnapshot { return Take().Hists }
