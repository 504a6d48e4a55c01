// sctop is "top" for subcontracts: it polls a daemon's telemetry plane
// (/metrics, see internal/telemetry) and renders a live per-subcontract
// table of call rates, error rates, retries, cache hit ratio, and mean /
// p50 / p99 latency computed from deltas between consecutive scrapes,
// plus a PEERS stanza from the netd per-peer RED histograms.
//
//	sctop -url http://localhost:6060/metrics
//	sctop -url http://localhost:6060/metrics -interval 1s
//	sctop -once          # single scrape, absolute totals, no screen clear
//	sctop -slow          # tail the slow-span ring (/traces/slow) instead
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:6060/metrics", "telemetry /metrics URL to poll")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "scrape once, print absolute totals, exit")
	slow := flag.Bool("slow", false, "tail the slow-span ring (/traces/slow) instead of the metrics table")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}

	if *slow {
		tailSlow(client, slowURL(*url), *interval, *once)
		return
	}

	if *once {
		cur, err := fetch(client, *url)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		render(os.Stdout, cur, nil, 0, false)
		return
	}

	var prev *scrape
	var prevAt time.Time
	for {
		cur, err := fetch(client, *url)
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sctop: %v (retrying in %v)\n", err, *interval)
		} else {
			clearScreen()
			fmt.Printf("sctop  %s  %s  interval=%v\n\n", *url, now.Format("15:04:05"), *interval)
			render(os.Stdout, cur, prev, now.Sub(prevAt), true)
			prev, prevAt = cur, now
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (*scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("sctop: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sctop: GET %s: status %s", url, resp.Status)
	}
	return parseMetrics(resp.Body)
}

func clearScreen() { fmt.Print("\x1b[2J\x1b[H") }

// ---------------------------------------------------------------------
// -slow: tail the slow-span ring.

// slowURL derives the /traces/slow endpoint from the -url flag (which
// points at /metrics on the same plane).
func slowURL(metricsURL string) string {
	return strings.TrimSuffix(metricsURL, "/metrics") + "/traces/slow"
}

// slowRoot is the listing shape handleSlowTraces serves.
type slowRoot struct {
	Trace    string `json:"trace"`
	Span     string `json:"span"`
	Name     string `json:"name"`
	Err      string `json:"err"`
	Start    string `json:"start"`
	Duration string `json:"duration"`
}

// tailSlow polls /traces/slow and prints each slow root once, newest
// last — `tail -f` for the calls that blew their latency budget.
func tailSlow(client *http.Client, url string, interval time.Duration, once bool) {
	seen := make(map[string]bool)
	for {
		roots, err := fetchSlow(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sctop: %v (retrying in %v)\n", err, interval)
		} else {
			// The listing is newest-first; print oldest-first so the tail
			// reads chronologically.
			for i := len(roots) - 1; i >= 0; i-- {
				r := roots[i]
				key := r.Trace + "/" + r.Span
				if seen[key] {
					continue
				}
				seen[key] = true
				status := ""
				if r.Err != "" {
					status = "  ERR " + r.Err
				}
				fmt.Printf("%s  %-28s %10s  trace=%s%s\n", r.Start, r.Name, r.Duration, r.Trace, status)
			}
		}
		if once {
			return
		}
		time.Sleep(interval)
	}
}

func fetchSlow(client *http.Client, url string) ([]slowRoot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("sctop: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sctop: GET %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var roots []slowRoot
	if err := json.Unmarshal(body, &roots); err != nil {
		return nil, fmt.Errorf("sctop: %s not JSON: %v", url, err)
	}
	return roots, nil
}

// ---------------------------------------------------------------------
// The metrics table.

// row is one rendered table line.
type row struct {
	name                 string
	calls, errs, retries float64
	hits, misses         float64
	latSum, latCount     float64
	buckets              []bucket // window-cumulative latency buckets
}

// rowsFrom computes per-subcontract values. With a previous scrape the
// values are deltas (rates over the elapsed window); without one they are
// absolute totals.
func rowsFrom(cur, prev *scrape) []row {
	var rows []row
	for name, c := range cur.counters {
		r := row{
			name:     name,
			calls:    c["subcontract_calls_total"],
			errs:     c["subcontract_errors_total"],
			retries:  c["subcontract_retries_total"] + c["subcontract_failovers_total"] + c["subcontract_reconnects_total"],
			hits:     c["subcontract_cache_hits_total"],
			misses:   c["subcontract_cache_misses_total"],
			latSum:   cur.latencySum[name],
			latCount: cur.latencyCount[name],
			buckets:  cur.latencyBuckets[name],
		}
		if prev != nil {
			if p, ok := prev.counters[name]; ok {
				r.calls -= p["subcontract_calls_total"]
				r.errs -= p["subcontract_errors_total"]
				r.retries -= p["subcontract_retries_total"] + p["subcontract_failovers_total"] + p["subcontract_reconnects_total"]
				r.hits -= p["subcontract_cache_hits_total"]
				r.misses -= p["subcontract_cache_misses_total"]
				r.latSum -= prev.latencySum[name]
				r.latCount -= prev.latencyCount[name]
				r.buckets = subBuckets(r.buckets, prev.latencyBuckets[name])
			}
		}
		rows = append(rows, r)
	}
	// Busiest first, then by name for a stable layout.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].calls != rows[j].calls {
			return rows[i].calls > rows[j].calls
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// fmtQuantile renders a histogram quantile as a duration ("-" when the
// window saw no samples).
func fmtQuantile(buckets []bucket, q float64) string {
	v := histQuantile(buckets, q)
	if math.IsNaN(v) {
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(10 * time.Nanosecond).String()
}

// render writes the table. asRates scales counter deltas by the elapsed
// window into per-second figures; otherwise raw totals are printed.
func render(w *os.File, cur, prev *scrape, elapsed time.Duration, asRates bool) {
	rows := rowsFrom(cur, prev)
	secs := elapsed.Seconds()
	rates := asRates && prev != nil && secs > 0

	unit := ""
	if rates {
		unit = "/s"
	}
	fmt.Fprintf(w, "%-24s %12s %10s %10s %8s %8s %10s %10s %10s\n",
		"SUBCONTRACT", "CALLS"+unit, "ERRS"+unit, "RETRY"+unit, "ERR%", "HIT%", "MEAN LAT", "P50", "P99")
	for _, r := range rows {
		calls, errs, retries := r.calls, r.errs, r.retries
		if rates {
			calls /= secs
			errs /= secs
			retries /= secs
		}
		errPct := "-"
		if r.calls > 0 {
			errPct = fmt.Sprintf("%.1f", 100*r.errs/r.calls)
		}
		hitPct := "-"
		if lookups := r.hits + r.misses; lookups > 0 {
			hitPct = fmt.Sprintf("%.1f", 100*r.hits/lookups)
		}
		meanLat := "-"
		if r.latCount > 0 {
			meanLat = time.Duration(r.latSum / r.latCount * float64(time.Second)).Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "%-24s %12.1f %10.1f %10.1f %8s %8s %10s %10s %10s\n",
			r.name, calls, errs, retries, errPct, hitPct, meanLat,
			fmtQuantile(r.buckets, 0.50), fmtQuantile(r.buckets, 0.99))
	}

	// PEERS: the netd per-peer RED histograms, windowed like the table.
	if len(cur.peers) > 0 {
		addrs := make([]string, 0, len(cur.peers))
		for a := range cur.peers {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		fmt.Fprintf(w, "\n%-24s %12s %10s %8s %10s %10s\n",
			"PEER", "CALLS"+unit, "ERRS"+unit, "ERR%", "P50", "P99")
		for _, a := range addrs {
			p := cur.peers[a]
			calls, errs, buckets := p.calls, p.errs, p.buckets
			if prev != nil {
				if pp, ok := prev.peers[a]; ok {
					calls -= pp.calls
					errs -= pp.errs
					buckets = subBuckets(buckets, pp.buckets)
				}
			}
			errPct := "-"
			if calls > 0 {
				errPct = fmt.Sprintf("%.1f", 100*errs/calls)
			}
			if rates {
				calls /= secs
				errs /= secs
			}
			fmt.Fprintf(w, "%-24s %12.1f %10.1f %8s %10s %10s\n",
				a, calls, errs, errPct, fmtQuantile(buckets, 0.50), fmtQuantile(buckets, 0.99))
		}
	}

	// One-line netd link summary: sockets vs peer sessions. A peer that has
	// sent a bulk request holds two sockets (call + bulk) under one session,
	// so conns > sessions is the normal shape.
	if conns, ok := cur.gauges["netd_conns_live"]; ok {
		fmt.Fprintf(w, "\nnetd link: CONNS %g  SESSIONS %g  SENDQ %g\n",
			conns, cur.gauges["netd_sessions_live"], cur.gauges["netd_sendq_depth"])
	}

	// A footer of the liveness gauges, when present in the scrape.
	if len(cur.gauges) > 0 {
		fmt.Fprintln(w)
		names := make([]string, 0, len(cur.gauges))
		for n := range cur.gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%s=%g", n, cur.gauges[n])
		}
		fmt.Fprintln(w)
	}
}
