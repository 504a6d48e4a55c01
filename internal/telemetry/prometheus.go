package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/scstats"
	"repro/internal/trace"
)

// The Prometheus text exposition of the scstats registry.
//
// Per-subcontract counters become one metric family each, labelled by
// subcontract, so a single scrape config covers every subcontract ever
// instrumented:
//
//	subcontract_calls_total{subcontract="netd"} 1234
//
// The always-on latency histograms become conventional Prometheus
// histograms (cumulative le buckets in seconds, _sum, _count), with one
// extension: buckets that remember a traced call carry an
// OpenMetrics-style exemplar suffix linking to /traces/{id}:
//
//	subcontract_latency_seconds_bucket{subcontract="netd",le="0.001"} 41 # {trace_id="4f1d..."} 0.00083
//
// (Strict 0.0.4 text-format parsers do not accept exemplars; this plane's
// own consumers — sctop, make obs — do, and per-op detail deliberately
// lives in /statz rather than /metrics to keep scrape cardinality at one
// aggregate histogram per subcontract plus one per peer.)
//
// Named gauges keep their names with the dots swapped for underscores
// (netd.conns_live → netd_conns_live) — except that gauges which are
// really monotonic event counts are exposed with Prometheus counter
// conventions: TYPE counter and a _total suffix (netd.leases_expired →
// netd_leases_expired_total).

// counterFamilies maps each scstats counter to its metric name and help
// string, in exposition order.
var counterFamilies = []struct {
	name string
	help string
	get  func(scstats.Snapshot) uint64
}{
	{"subcontract_calls_total", "Invocations started through the subcontract.",
		func(s scstats.Snapshot) uint64 { return s.Calls }},
	{"subcontract_errors_total", "Invocations that returned an error.",
		func(s scstats.Snapshot) uint64 { return s.Errors }},
	{"subcontract_deadline_exceeded_total", "Errors that were context deadline endings.",
		func(s scstats.Snapshot) uint64 { return s.DeadlineExceeded }},
	{"subcontract_cancelled_total", "Errors that were caller cancellations.",
		func(s scstats.Snapshot) uint64 { return s.Cancelled }},
	{"subcontract_retries_total", "Calls re-issued after a retry-safe failure.",
		func(s scstats.Snapshot) uint64 { return s.Retries }},
	{"subcontract_failovers_total", "Replica switches (replicon).",
		func(s scstats.Snapshot) uint64 { return s.Failovers }},
	{"subcontract_reconnects_total", "Binding re-resolutions (reconnectable).",
		func(s scstats.Snapshot) uint64 { return s.Reconnects }},
	{"subcontract_cache_hits_total", "Calls served from a local cache.",
		func(s scstats.Snapshot) uint64 { return s.Hits }},
	{"subcontract_cache_misses_total", "Cacheable calls forwarded to the server.",
		func(s scstats.Snapshot) uint64 { return s.Misses }},
	{"subcontract_cache_coalesced_total", "Misses that shared another caller's in-flight server call.",
		func(s scstats.Snapshot) uint64 { return s.Coalesced }},
}

// counterGauges lists the named gauges that are monotonic event counts in
// disguise; the exposition gives them counter conventions (_total, TYPE
// counter). Every other gauge is a level and stays a gauge.
var counterGauges = map[string]bool{
	"buffer.drops":             true,
	"buffer.gets":              true,
	"buffer.large_allocs":      true,
	"buffer.misses":            true,
	"buffer.puts":              true,
	"buffer.released":          true,
	"cache.coalesced_misses":   true,
	"cache.evictions":          true,
	"dispatch.inline_hits":     true,
	"dispatch.shed":            true,
	"netd.breaker_closed":      true,
	"netd.breaker_opened":      true,
	"netd.flushes":             true,
	"netd.frames_coalesced":    true,
	"netd.leases_expired":      true,
	"netd.refs_reclaimed":      true,
	"netd.releases_replayed":   true,
	"wal.appends":              true,
	"wal.compactions":          true,
	"wal.records_replayed":     true,
	"wal.syncs":                true,
	"wal.torn_tails_truncated": true,
}

// writeMetrics renders the whole registry.
func writeMetrics(w io.Writer) {
	reg := scstats.Take()

	for _, fam := range counterFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", fam.name, fam.help, fam.name)
		for _, sn := range reg.Subcontracts {
			fmt.Fprintf(w, "%s{subcontract=%q} %d\n", fam.name, sn.Name, fam.get(sn))
		}
	}

	// The always-on latency histogram, aggregated per subcontract (per-op
	// detail is served by /statz).
	const hist = "subcontract_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Invocation latency over every call (always-on HDR buckets; bucket exemplars carry the last traced call).\n# TYPE %s histogram\n", hist, hist)
	for _, sn := range reg.Subcontracts {
		writeHistRow(w, hist, fmt.Sprintf("subcontract=%q", sn.Name), sn.Lat)
	}

	// Per-peer RED from netd's forward path.
	fmt.Fprintf(w, "# HELP netd_peer_calls_total Calls forwarded to the peer.\n# TYPE netd_peer_calls_total counter\n")
	for _, p := range reg.Peers {
		fmt.Fprintf(w, "netd_peer_calls_total{peer=%q} %d\n", p.Addr, p.Calls)
	}
	fmt.Fprintf(w, "# HELP netd_peer_errors_total Forwarded calls that returned an error.\n# TYPE netd_peer_errors_total counter\n")
	for _, p := range reg.Peers {
		fmt.Fprintf(w, "netd_peer_errors_total{peer=%q} %d\n", p.Addr, p.Errors)
	}
	fmt.Fprintf(w, "# HELP netd_peer_latency_seconds Forwarded-call latency per peer.\n# TYPE netd_peer_latency_seconds histogram\n")
	for _, p := range reg.Peers {
		writeHistRow(w, "netd_peer_latency_seconds", fmt.Sprintf("peer=%q", p.Addr), p.Lat)
	}

	// Named histograms (dispatch queue delay, cache miss fill, ...).
	for _, nh := range reg.Hists {
		name := sanitizeMetricName(nh.Name) + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		writeHistRow(w, name, "", nh.Hist)
	}

	// Tail-capture accounting from the trace layer.
	ts := trace.TailStats()
	for _, c := range []struct {
		name string
		help string
		v    uint64
	}{
		{"trace_tail_armed_total", "Speculative tail-capture traces started.", ts.Armed},
		{"trace_tail_committed_total", "Speculative traces that ran slow and were kept.", ts.Committed},
		{"trace_tail_abandoned_total", "Speculative traces that ran fast and were dropped.", ts.Abandoned},
		{"trace_tail_declined_total", "Tail-capture arms refused (buffer shard full).", ts.Declined},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}

	// Named gauges, every one, zeros included (a level returning to zero
	// must not vanish from the scrape). Monotonic event counts get counter
	// conventions.
	for _, g := range scstats.AllGauges() {
		name := sanitizeMetricName(g.Name)
		if counterGauges[g.Name] {
			fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", name, name, g.Value)
		} else {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, g.Value)
		}
	}
}

// writeHistRow emits one histogram series set — cumulative le buckets in
// seconds (with exemplar suffixes where a bucket remembers a traced
// call), +Inf, _sum and _count. labels is the label list without le
// ("" for an unlabelled family).
func writeHistRow(w io.Writer, name, labels string, h scstats.HistSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	var infEx string
	for _, b := range h.Buckets {
		cum += b.Count
		ex := ""
		if b.ExTrace != 0 {
			ex = fmt.Sprintf(" # {trace_id=\"%016x\"} %s", b.ExTrace, formatFloat(float64(b.ExNs)/1e9))
		}
		if b.Hi == math.MaxInt64 {
			infEx = ex // the catch-all bucket is the +Inf line
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d%s\n",
			name, labels, sep, formatFloat(float64(b.Hi)/1e9), cum, ex)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d%s\n", name, labels, sep, h.Count, infEx)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(float64(h.SumNs)/1e9))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.SumNs)/1e9))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
}

// sanitizeMetricName maps a gauge name to the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing everything else with '_'.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a float as a Go-syntax literal, which the
// Prometheus text format accepts (exponents included — nanosecond bucket
// bounds in seconds need them).
func formatFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
