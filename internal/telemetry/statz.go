package telemetry

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// /statz: windowed rates and percentiles.
//
// /metrics serves monotonic totals and leaves rate math to the scraper;
// /statz answers the operator's actual question — "what are the rates and
// percentiles over N seconds" — directly. A request for ?window=10s reads
// the whole scstats registry (subcontracts with per-op histograms, peers,
// named histograms) and the buffer ledger, waits the window out, reads
// them again and answers the difference: the W seconds after the request,
// as /debug/pprof/profile records the seconds after its own. Counts
// subtract exactly and histogram buckets subtract bucket-wise (counts are
// monotonic), so the percentiles reported for a window are computed from
// precisely the calls that completed inside it. ?window=0 answers at once
// with the totals since the plane started (sctop -once). Gauges are
// levels, not counts: a response carries their values as it is rendered.

const statzMaxWin = 10 * time.Minute

// statzSample is one side of a window: the registry, the buffer ledger and
// netd's admission counter (a level, not a count).
type statzSample struct {
	at time.Time
	scstats.Sample
	bufs     buffer.Ledger
	inflight int64
}

var gServeInflight = scstats.GaugeFor("netd.serve_inflight")

func takeStatz() statzSample {
	return statzSample{at: time.Now(), Sample: scstats.Take(), bufs: buffer.Stats(), inflight: gServeInflight.Value()}
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
// The handler.

// parseWindow reads a ?window= value: 10s when absent, clamped to
// statzMaxWin; not ok for a non-duration or a negative one.
func parseWindow(q string) (time.Duration, bool) {
	if q == "" {
		return 10 * time.Second, true
	}
	d, err := time.ParseDuration(q)
	return min(d, statzMaxWin), err == nil && d >= 0
}

// handleStatz serves /statz for a plane started at start.
func handleStatz(start time.Time) handler {
	return func(w *response, r *request) {
		window, ok := parseWindow(r.query.Get("window"))
		if !ok {
			w.error(400, "bad window (want a duration like 10s, or 0 for totals since start)")
			return
		}
		prev := statzSample{at: start} // window 0: totals since start
		if window != 0 {
			prev = takeStatz()
			r.wait(window)
		}
		cur := takeStatz()
		resp := statzDelta(cur, prev, cur.at.Sub(prev.at).Seconds(), r.query.Get("buckets") == "1")
		resp.Gauges = make(map[string]int64)
		for _, g := range scstats.AllGauges() {
			resp.Gauges[g.Name] = g.Value
		}
		writeJSON(w, resp)
	}
}
