package telemetry

import (
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// /statz: windowed rates and percentiles.
//
// /metrics serves monotonic totals and leaves rate math to the scraper;
// /statz answers the operator's actual question — "what are the rates and
// percentiles over the last N seconds" — directly. A background sampler
// snapshots the whole scstats registry (subcontracts with per-op
// histograms, peers, named histograms) once a second into a ring; a
// request for ?window=10s diffs the current state against the stored
// sample nearest the window edge. Counts subtract exactly and histogram
// buckets subtract bucket-wise (counts are monotonic), so the percentiles
// reported for a window are computed from precisely the calls that
// completed inside it. ?window=0 returns totals since process start
// (sctop -once). Gauges are levels, not counts: a response carries their
// current values, read when it is rendered and never sampled into the ring.
//
// The ring keeps each sample packed (below): a sample is a few KB, and once
// the default ring (128 samples ≈ 2 minutes) has wrapped, sampling
// allocates nothing.

const (
	statzInterval = time.Second
	statzRingCap  = 128
	statzMaxWin   = 10 * time.Minute
)

// statzSample is one side of a window: the registry, the buffer ledger and
// netd's admission counter (a level, not a count).
type statzSample struct {
	at time.Time
	scstats.Sample
	bufs     buffer.Ledger
	inflight int64
}

var gServeInflight = scstats.GaugeFor("netd.serve_inflight")

// packed is what the ring keeps of a sample: scstats' packed form — one row
// per histogram with its counters, the rows' occupied buckets back to back
// as (index, count) — taken straight off the live registry. Bounds are
// derived when a window is asked for; Unpack assembles the older side of a
// window as Take assembles the live, newer one.
type packed struct {
	at       time.Time
	rows     []scstats.PackedRow
	cells    []scstats.BucketCount
	bufs     buffer.Ledger
	inflight int64
}

// take samples the registry into p. A slot filled for the first time is
// sized by the sample before it, last, which a second later is exact or a
// bucket or two short: one allocation each for rows and cells, not a
// doubling series of them.
func (p *packed) take(at time.Time, last *packed) {
	if p.rows == nil {
		p.rows = make([]scstats.PackedRow, 0, len(last.rows)+4)
		p.cells = make([]scstats.BucketCount, 0, len(last.cells)+16)
	}
	p.at, p.bufs, p.inflight = at, buffer.Stats(), gServeInflight.Value()
	p.rows, p.cells = scstats.Pack(p.rows[:0], p.cells[:0])
}

// statzRing is a fixed-capacity ring of samples, oldest overwritten
// first. Kept free of HTTP concerns so the wraparound math is unit
// testable.
type statzRing struct {
	mu      sync.Mutex
	samples []packed
	next    int // index the next push writes
	count   int // stored samples, ≤ cap
	start   time.Time
}

func newStatzRing(capacity int, start time.Time) *statzRing {
	return &statzRing{samples: make([]packed, capacity), start: start}
}

// push samples the registry, as of at, into the oldest slot.
func (r *statzRing) push(at time.Time) {
	r.mu.Lock()
	n := len(r.samples)
	r.samples[r.next].take(at, &r.samples[(r.next+n-1)%n])
	r.next = (r.next + 1) % n
	if r.count < n {
		r.count++
	}
	r.mu.Unlock()
}

// before returns the newest stored sample taken at or before cutoff. When
// every stored sample is newer than cutoff (the window reaches past what
// the ring still holds), it returns the oldest stored sample — the caller
// reports the actual, clamped window. ok is false only when the ring is
// empty.
func (r *statzRing) before(cutoff time.Time) (statzSample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return statzSample{}, false
	}
	// Newest first: the first sample not after cutoff, else the oldest.
	var p *packed
	for i := 1; i <= r.count; i++ {
		p = &r.samples[(r.next-i+len(r.samples))%len(r.samples)]
		if !p.at.After(cutoff) {
			break
		}
	}
	return statzSample{at: p.at, Sample: scstats.Unpack(p.rows, p.cells), bufs: p.bufs, inflight: p.inflight}, true
}

// ---------------------------------------------------------------------
// JSON shapes.

type statzLat struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P90Ns  int64  `json:"p90_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
	// Buckets is the sparse interval histogram as [lo_ns, hi_ns, count]
	// triples (hi −1 = unbounded), included only with ?buckets=1 —
	// clients that diff two absolute scrapes themselves (the two-process
	// benchmark) need the raw buckets, dashboards do not.
	Buckets [][3]int64 `json:"buckets,omitempty"`
}

func latFrom(h scstats.HistSnapshot, withBuckets bool) statzLat {
	l := statzLat{
		Count:  h.Count,
		MeanNs: h.Mean(),
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
	}
	if withBuckets {
		for _, b := range h.Buckets {
			hi := b.Hi
			if hi == int64(^uint64(0)>>1) { // math.MaxInt64
				hi = -1
			}
			l.Buckets = append(l.Buckets, [3]int64{b.Lo, hi, int64(b.Count)})
		}
	}
	return l
}

type statzOp struct {
	Op       uint32   `json:"op"`
	Overflow bool     `json:"overflow,omitempty"`
	Latency  statzLat `json:"latency"`
}

type statzSC struct {
	Name         string    `json:"name"`
	Calls        uint64    `json:"calls"`
	CallsPerSec  float64   `json:"calls_per_sec"`
	Errors       uint64    `json:"errors"`
	ErrorsPerSec float64   `json:"errors_per_sec"`
	Retries      uint64    `json:"retries,omitempty"`
	Failovers    uint64    `json:"failovers,omitempty"`
	Reconnects   uint64    `json:"reconnects,omitempty"`
	Hits         uint64    `json:"hits,omitempty"`
	Misses       uint64    `json:"misses,omitempty"`
	Coalesced    uint64    `json:"coalesced,omitempty"`
	Latency      statzLat  `json:"latency"`
	Ops          []statzOp `json:"ops,omitempty"`
}

type statzPeer struct {
	Addr         string   `json:"addr"`
	Calls        uint64   `json:"calls"`
	CallsPerSec  float64  `json:"calls_per_sec"`
	Errors       uint64   `json:"errors"`
	ErrorsPerSec float64  `json:"errors_per_sec"`
	Latency      statzLat `json:"latency"`
}

type statzHist struct {
	Name    string   `json:"name"`
	Latency statzLat `json:"latency"`
}

type statzResponse struct {
	Now           string      `json:"now"`
	WindowSeconds float64     `json:"window_seconds"`
	Subcontracts  []statzSC   `json:"subcontracts"`
	Peers         []statzPeer `json:"peers,omitempty"`
	Hists         []statzHist `json:"hists,omitempty"`
	// Buffers is the communication-buffer pool's ledger over the window:
	// gets − puts is what the window's calls kept, misses the gets that
	// had to allocate, drops the puts of buffers the pool does not own.
	Buffers buffer.Ledger `json:"buffers"`
	// ServeInflight is the number of incoming calls admitted by the network
	// door servers and not yet replied to, as of the window's end: handlers
	// running or blocked inside this process.
	ServeInflight int64 `json:"serve_inflight"`
	// Gauges is every interned gauge's value as the response is rendered.
	Gauges map[string]int64 `json:"gauges,omitempty"`
}

// ---------------------------------------------------------------------
// Delta assembly.

func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// statzDelta builds the response for cur − prev over secs seconds.
func statzDelta(cur, prev statzSample, secs float64, withBuckets bool) statzResponse {
	resp := statzResponse{
		Now:           cur.at.UTC().Format(time.RFC3339Nano),
		WindowSeconds: secs,
	}
	rate := func(n uint64) float64 {
		if secs <= 0 {
			return 0
		}
		return float64(n) / secs
	}

	prevSC := make(map[string]scstats.Snapshot, len(prev.Subcontracts))
	for _, s := range prev.Subcontracts {
		prevSC[s.Name] = s
	}
	for _, c := range cur.Subcontracts {
		p := prevSC[c.Name] // zero Snapshot when new since prev
		lat := c.Lat.Sub(p.Lat)
		sc := statzSC{
			Name:       c.Name,
			Calls:      sub64(c.Calls, p.Calls),
			Errors:     sub64(c.Errors, p.Errors),
			Retries:    sub64(c.Retries, p.Retries),
			Failovers:  sub64(c.Failovers, p.Failovers),
			Reconnects: sub64(c.Reconnects, p.Reconnects),
			Hits:       sub64(c.Hits, p.Hits),
			Misses:     sub64(c.Misses, p.Misses),
			Coalesced:  sub64(c.Coalesced, p.Coalesced),
			Latency:    latFrom(lat, withBuckets),
		}
		sc.CallsPerSec = rate(sc.Calls)
		sc.ErrorsPerSec = rate(sc.Errors)
		if sc.Calls == 0 && sc.Latency.Count == 0 {
			continue // idle over the window
		}
		prevOps := make(map[uint32]scstats.OpSnapshot, len(p.Ops))
		for _, op := range p.Ops {
			prevOps[op.Op] = op
		}
		for _, op := range c.Ops {
			d := op.Lat.Sub(prevOps[op.Op].Lat)
			if d.Count == 0 {
				continue
			}
			sc.Ops = append(sc.Ops, statzOp{Op: op.Op, Overflow: op.Overflow, Latency: latFrom(d, withBuckets)})
		}
		resp.Subcontracts = append(resp.Subcontracts, sc)
	}

	prevPeer := make(map[string]scstats.PeerSnapshot, len(prev.Peers))
	for _, s := range prev.Peers {
		prevPeer[s.Addr] = s
	}
	for _, c := range cur.Peers {
		p := prevPeer[c.Addr]
		sp := statzPeer{
			Addr:    c.Addr,
			Calls:   sub64(c.Calls, p.Calls),
			Errors:  sub64(c.Errors, p.Errors),
			Latency: latFrom(c.Lat.Sub(p.Lat), withBuckets),
		}
		if sp.Calls == 0 && sp.Latency.Count == 0 {
			continue
		}
		sp.CallsPerSec = rate(sp.Calls)
		sp.ErrorsPerSec = rate(sp.Errors)
		resp.Peers = append(resp.Peers, sp)
	}

	prevHist := make(map[string]scstats.NamedHistSnapshot, len(prev.Hists))
	for _, s := range prev.Hists {
		prevHist[s.Name] = s
	}
	for _, c := range cur.Hists {
		d := c.Hist.Sub(prevHist[c.Name].Hist)
		if d.Count == 0 {
			continue
		}
		resp.Hists = append(resp.Hists, statzHist{Name: c.Name, Latency: latFrom(d, withBuckets)})
	}
	resp.Buffers = cur.bufs.Sub(prev.bufs)
	resp.ServeInflight = cur.inflight
	return resp
}

// ---------------------------------------------------------------------
// The sampler and handler, owned by a Server.

type statzState struct {
	ring *statzRing
	stop chan struct{}
	done chan struct{}
}

func newStatzState() *statzState {
	st := &statzState{
		ring: newStatzRing(statzRingCap, time.Now()),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go st.sample()
	return st
}

func (st *statzState) sample() {
	defer close(st.done)
	t := time.NewTicker(statzInterval)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case now := <-t.C:
			st.ring.push(now)
		}
	}
}

func (st *statzState) close() {
	close(st.stop)
	<-st.done
}

func (st *statzState) handle(w *response, r *request) {
	window := 10 * time.Second
	if q := r.query.Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d < 0 {
			w.error(400, "bad window (want a duration like 10s, or 0 for totals since start)")
			return
		}
		if d > statzMaxWin {
			d = statzMaxWin
		}
		window = d
	}
	withBuckets := r.query.Get("buckets") == "1"

	now := time.Now()
	cur := statzSample{at: now, Sample: scstats.Take(), bufs: buffer.Stats(), inflight: gServeInflight.Value()}
	prev := statzSample{at: st.ring.start} // window 0: totals since start
	if window != 0 {
		if s, ok := st.ring.before(now.Add(-window)); ok {
			prev = s
		}
	}
	resp := statzDelta(cur, prev, now.Sub(prev.at).Seconds(), withBuckets)
	resp.Gauges = make(map[string]int64)
	for _, g := range scstats.AllGauges() {
		resp.Gauges[g.Name] = g.Value
	}
	writeJSON(w, resp)
}
