// Package telemetry is the opt-in runtime observability plane: a GET-only
// HTTP/1.1 listener (responder.go) any daemon can start (-telemetry :6060)
// exposing what scstats and internal/trace already collect.
//
// Endpoints:
//
//	/metrics          every scstats counter, gauge and always-on latency
//	                  histogram (with trace exemplars) in Prometheus text
//	                  exposition format
//	/statz            rates and percentiles over the ?window= (default
//	                  10s) after the request; 0 for totals since start at
//	                  once, &buckets=1 for raw buckets
//	/traces           recent trace roots (JSON)
//	/traces/slow      recent head-sampled roots that ran slow (JSON)
//	/traces/{id}      one trace as a span tree (JSON; ?format=text for a
//	                  waterfall); slow-ring traces resolve here too
//	/healthz          liveness summary from the netd gauges: peer
//	                  sessions, breaker states, lease health
//	/debug/pprof/...  the Go profiler endpoints: the index, cmdline,
//	                  profile and trace (?seconds=), symbol (GET form),
//	                  named profiles (?debug=N, heap?gc=1); no delta
//	                  profiles
//
// The plane is read-only and carries no authentication — it is operator
// tooling for machines you already own. Everything it serves comes from
// lock-free snapshots, so scraping cannot perturb the data path.
package telemetry

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/scstats"
	"repro/internal/sock"
	"repro/internal/trace"
)

// Server is one running telemetry listener.
type Server struct {
	ln     sock.Listener
	routes map[string]handler // a key ending in "/" is a prefix
	done   chan struct{}

	mu    sync.Mutex
	conns map[sock.Stream]bool // being served; nil once closed
}

// Start opens the telemetry plane on addr (e.g. ":6060", "127.0.0.1:0").
func Start(addr string) (*Server, error) {
	ln, err := sock.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, done: make(chan struct{}), conns: map[sock.Stream]bool{},
		routes: map[string]handler{
			"/metrics":             handleMetrics,
			"/statz":               handleStatz(time.Now()),
			"/traces":              listRoots(trace.Roots),
			"/traces/slow":         listRoots(trace.SlowRoots),
			"/traces/":             handleTrace,
			"/healthz":             handleHealthz,
			"/debug/pprof/":        handlePprof,
			"/debug/pprof/cmdline": func(w *response, _ *request) { w.WriteString(strings.Join(os.Args, "\x00")) },
			"/debug/pprof/profile": recording(pprof.StartCPUProfile, pprof.StopCPUProfile, 30),
			"/debug/pprof/symbol":  handleSymbol,
			"/debug/pprof/trace":   recording(rtrace.Start, rtrace.Stop, 1),
		}}
	go s.serve()
	return s, nil
}

// Addr returns the listener's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr() }

// Close shuts the listener and every connection being served down, and
// ends any profile, trace or /statz window wait. It does not wait for
// the handlers, which end once their connection is gone: stopping a CPU
// profile takes up to two of the runtime's 100 ms profile-writer ticks.
func (s *Server) Close() error {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	close(s.done)
	return s.ln.Close()
}

// ---------------------------------------------------------------------
// /metrics

func handleMetrics(w *response, _ *request) {
	w.ctype = "text/plain; version=0.0.4; charset=utf-8"
	writeMetrics(w)
}

// ---------------------------------------------------------------------
// /traces and /traces/{id}

// traceJSON is the wire form of one span (trace/span IDs as hex strings —
// JSON numbers lose uint64 precision past 2^53).
type traceJSON struct {
	Trace    string `json:"trace"`
	Span     string `json:"span"`
	Parent   string `json:"parent,omitempty"`
	Name     string `json:"name"`
	Err      string `json:"err,omitempty"`
	Start    string `json:"start"` // RFC3339Nano
	Duration string `json:"duration"`

	Children []traceJSON `json:"children,omitempty"`
}

func spanJSON(sd trace.SpanData) traceJSON {
	tj := traceJSON{
		Trace:    fmt.Sprintf("%016x", sd.TraceID),
		Span:     fmt.Sprintf("%016x", sd.SpanID),
		Name:     sd.Name,
		Err:      sd.Err,
		Start:    time.Unix(0, sd.Start).UTC().Format(time.RFC3339Nano),
		Duration: time.Duration(sd.Duration).String(),
	}
	if sd.ParentID != 0 {
		tj.Parent = fmt.Sprintf("%016x", sd.ParentID)
	}
	return tj
}

func nodeJSON(n *trace.Node) traceJSON {
	tj := spanJSON(n.SpanData)
	for _, c := range n.Children {
		tj.Children = append(tj.Children, nodeJSON(c))
	}
	return tj
}

// listRoots serves the newest ?max= (default 50) trace roots from a ring:
// the sampled one at /traces, and at /traces/slow the slow ring — every
// head-sampled root that exceeded the slow threshold.
func listRoots(roots func(max int) []trace.SpanData) handler {
	return func(w *response, r *request) {
		max, err := strconv.Atoi(r.query.Get("max"))
		if err != nil || max <= 0 {
			max = 50
		}
		out := []traceJSON{}
		for _, sd := range roots(max) {
			out = append(out, spanJSON(sd))
		}
		writeJSON(w, out)
	}
}

func handleTrace(w *response, r *request) {
	idStr := strings.TrimPrefix(r.path, "/traces/")
	id, err := strconv.ParseUint(idStr, 16, 64)
	if err != nil || id == 0 {
		w.error(400, "bad trace id (want 16 hex digits)")
		return
	}
	roots := trace.Tree(id)
	if len(roots) == 0 {
		// A slow trace outlives its main-ring copy in the slow ring.
		roots = trace.SlowTree(id)
	}
	if len(roots) == 0 {
		w.error(404, "trace not found (unrecorded, or already overwritten)")
		return
	}
	if r.query.Get("format") == "text" {
		base := roots[0].Start
		for _, n := range roots {
			if n.Start < base {
				base = n.Start
			}
		}
		fmt.Fprintf(w, "trace %016x\n", id)
		for _, n := range roots {
			writeWaterfall(w, n, 0, base)
		}
		return
	}
	out := []traceJSON{}
	for _, n := range roots {
		out = append(out, nodeJSON(n))
	}
	writeJSON(w, out)
}

// writeWaterfall renders one span subtree as an indented text waterfall:
// offset from the trace's first recorded span, duration, span ID, error.
func writeWaterfall(w io.Writer, n *trace.Node, depth int, base int64) {
	status := ""
	if n.Err != "" {
		status = "  ERR " + n.Err
	}
	name := strings.Repeat("  ", depth) + n.Name
	fmt.Fprintf(w, "%-32s +%-12v %-12v span=%016x%s\n",
		name, time.Duration(n.Start-base), time.Duration(n.Duration), n.SpanID, status)
	for _, c := range n.Children {
		writeWaterfall(w, c, depth+1, base)
	}
}

// ---------------------------------------------------------------------
// /healthz

// health is the liveness summary, assembled from the netd gauges the
// liveness layer (PR 2) maintains.
type health struct {
	Status string `json:"status"` // "ok" or "degraded"
	// Degraded lists why status is "degraded" (empty when ok).
	Degraded []string `json:"degraded,omitempty"`

	ConnsLive       int64 `json:"conns_live"`
	SessionsLive    int64 `json:"sessions_live"`
	ExportsLive     int64 `json:"exports_live"`
	LeasesExpired   int64 `json:"leases_expired"`
	RefsReclaimed   int64 `json:"refs_reclaimed"`
	BreakersOpen    int64 `json:"breakers_open"`
	BreakerOpened   int64 `json:"breaker_opened_total"`
	BreakerClosed   int64 `json:"breaker_closed_total"`
	ReleasesQueued  int64 `json:"releases_queued"`
	TraceSampleRate int   `json:"trace_sample_every"`
}

func handleHealthz(w *response, _ *request) {
	g := func(name string) int64 { return scstats.GaugeFor(name).Value() }
	h := health{
		Status:          "ok",
		ConnsLive:       g("netd.conns_live"),
		SessionsLive:    g("netd.sessions_live"),
		ExportsLive:     g("netd.exports_live"),
		LeasesExpired:   g("netd.leases_expired"),
		RefsReclaimed:   g("netd.refs_reclaimed"),
		BreakerOpened:   g("netd.breaker_opened"),
		BreakerClosed:   g("netd.breaker_closed"),
		ReleasesQueued:  g("netd.releases_queued"),
		TraceSampleRate: trace.SamplingEvery(),
	}
	h.BreakersOpen = max(0, h.BreakerOpened-h.BreakerClosed)
	if h.BreakersOpen > 0 {
		h.Status, w.status = "degraded", 503
		h.Degraded = []string{fmt.Sprintf("%d circuit breaker(s) open: some peers unreachable", h.BreakersOpen)}
	}
	writeJSON(w, h)
}
