package scstats

import "sort"

// Take, the one reader of the registry's three tables besides Reset:
// /metrics, both sides of a /statz window and AllSnapshots read the
// registry this one way.

// sum adds the counts of lat and of every op histogram into counts.
func sum(counts *[histBuckets]uint64, lat *Hist, ops []*Hist) {
	lat.addTo(counts)
	for _, h := range ops {
		if h != nil {
			h.addTo(counts)
		}
	}
}

// sumSnapshot snapshots the sum of lat and ops (nil entries skipped). A
// bucket's exemplar is the first one set among the histograms it sums.
func sumSnapshot(lat *Hist, ops []*Hist) HistSnapshot {
	var counts [histBuckets]uint64
	sum(&counts, lat, ops)
	return snapshotOf(&counts, func(i int) (uint64, uint64) {
		tr, tk := lat.exemplar(i)
		for _, h := range ops {
			if h != nil && tr == 0 {
				tr, tk = h.exemplar(i)
			}
		}
		return tr, tk
	})
}

// Sample is the registry as one pass over it saw it, each list sorted by
// name.
type Sample struct {
	Subcontracts []Snapshot
	Peers        []PeerSnapshot
	Hists        []NamedHistSnapshot
}

// Take snapshots the live registry. A subcontract's histogram sums its
// unkeyed one and every op's; its ops list the op histograms that have
// counts.
func Take() Sample {
	var s Sample
	for _, v := range registry.Range {
		st := v.(*Stats)
		var ops []*Hist
		if t := st.ops.Load(); t != nil {
			ops = *t
		}
		sn := Snapshot{Name: st.name, Calls: st.Calls.Load(), Errors: st.Errors.Load(),
			DeadlineExceeded: st.DeadlineExceeded.Load(), Cancelled: st.Cancelled.Load(),
			Retries: st.Retries.Load(), Failovers: st.Failovers.Load(), Reconnects: st.Reconnects.Load(),
			Hits: st.Hits.Load(), Misses: st.Misses.Load(), Coalesced: st.Coalesced.Load(),
			Lat: sumSnapshot(st.lat, ops)}
		for op, h := range ops {
			if h == nil {
				continue
			}
			if lat := sumSnapshot(h, nil); lat.Count > 0 {
				sn.Ops = append(sn.Ops, OpSnapshot{Op: uint32(op), Overflow: op == maxOps, Lat: lat})
			}
		}
		s.Subcontracts = append(s.Subcontracts, sn)
	}
	for _, v := range peers.Range {
		p := v.(*PeerStats)
		s.Peers = append(s.Peers, PeerSnapshot{Addr: p.addr, Calls: p.Calls.Load(), Errors: p.Errors.Load(),
			Lat: sumSnapshot(p.lat, nil)})
	}
	for _, v := range hists.Range {
		nh := v.(*namedHist)
		s.Hists = append(s.Hists, NamedHistSnapshot{Name: nh.name, Hist: sumSnapshot(nh.h, nil)})
	}
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
