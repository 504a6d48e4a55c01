// sctop is "top" for subcontracts: it polls a daemon's telemetry plane
// (/statz, see internal/telemetry) and renders a per-subcontract table of
// call rates, error rates, retries, cache hit ratio, and mean / p50 / p99
// latency, a PEERS stanza from the netd per-peer RED histograms, the netd
// link line and a footer of every gauge. The rates and percentiles are the
// server's: each of the live view's requests asks /statz for the next poll
// interval and is answered when it ends, -once for the totals since the
// daemon started.
//
//	sctop -url http://localhost:6060/metrics
//	sctop -url http://localhost:6060/metrics -interval 1s
//	sctop -once          # totals since start, no screen clear
//	sctop -slow          # tail the slow-span ring (/traces/slow) instead
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:6060/metrics", "the telemetry plane's /metrics URL; sctop reads /statz beside it")
	interval := flag.Duration("interval", 2*time.Second, "poll interval, and the window the live view's rates cover")
	once := flag.Bool("once", false, "print the totals since the daemon started once, and exit")
	slow := flag.Bool("slow", false, "tail the slow-span ring (/traces/slow) instead of the metrics table")
	flag.Parse()

	client := &http.Client{Timeout: *interval + 5*time.Second} // a window request spans the interval

	if *slow {
		tailSlow(client, slowURL(*url), *interval, *once)
		return
	}

	if *once {
		var st statz
		if err := getJSON(client, statzURL(*url, "0"), &st); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		render(os.Stdout, &st, false)
		return
	}

	for {
		var st statz
		if err := getJSON(client, statzURL(*url, interval.String()), &st); err != nil {
			fmt.Fprintf(os.Stderr, "%v (retrying in %v)\n", err, *interval)
			time.Sleep(*interval)
			continue
		}
		clearScreen()
		fmt.Printf("sctop  %s  %s  interval=%v\n\n", *url, time.Now().Format("15:04:05"), *interval)
		render(os.Stdout, &st, true)
	}
}

// getJSON decodes the JSON body of a GET of url into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("sctop: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sctop: GET %s: status %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("sctop: %s not JSON: %v", url, err)
	}
	return nil
}

func clearScreen() { fmt.Print("\x1b[2J\x1b[H") }

// statzURL derives the /statz query for a window from the -url flag (which
// points at /metrics on the same plane).
func statzURL(metricsURL, window string) string {
	return strings.TrimSuffix(metricsURL, "/metrics") + "/statz?window=" + window
}

// ---------------------------------------------------------------------
// -slow: tail the slow-span ring.

// slowURL derives the /traces/slow endpoint from the -url flag.
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
		var roots []slowRoot
		if err := getJSON(client, url, &roots); err != nil {
			fmt.Fprintf(os.Stderr, "%v (retrying in %v)\n", err, interval)
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

// ---------------------------------------------------------------------
// The metrics table.

// statz is the part of a /statz response sctop renders.
type statz struct {
	WindowSeconds float64 `json:"window_seconds"`
	Subcontracts  []struct {
		Name                                                        string
		Calls, Errors, Retries, Failovers, Reconnects, Hits, Misses uint64
		Latency                                                     latency
	}
	Peers []struct {
		Addr          string
		Calls, Errors uint64
		Latency       latency
	}
	Gauges map[string]int64
}

type latency struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// dur renders one of l's figures as a duration, "-" when the window
// recorded no latency.
func (l latency) dur(ns int64, round time.Duration) string {
	if l.Count == 0 {
		return "-"
	}
	return time.Duration(ns).Round(round).String()
}

// pct renders part/whole as a percentage, "-" when whole is 0.
func pct(part, whole uint64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(part)/float64(whole))
}

// render writes the table. With rates the window's counts are divided by
// its length into per-second figures; otherwise the counts are printed.
func render(w io.Writer, st *statz, rates bool) {
	unit := ""
	if rates {
		unit = "/s"
	}
	per := func(n uint64) float64 {
		if rates && st.WindowSeconds > 0 {
			return float64(n) / st.WindowSeconds
		}
		return float64(n)
	}

	scs := st.Subcontracts
	// Busiest first, then by name for a stable layout.
	sort.Slice(scs, func(i, j int) bool {
		if scs[i].Calls != scs[j].Calls {
			return scs[i].Calls > scs[j].Calls
		}
		return scs[i].Name < scs[j].Name
	})
	fmt.Fprintf(w, "%-24s %12s %10s %10s %8s %8s %10s %10s %10s\n",
		"SUBCONTRACT", "CALLS"+unit, "ERRS"+unit, "RETRY"+unit, "ERR%", "HIT%", "MEAN LAT", "P50", "P99")
	for _, s := range scs {
		l := s.Latency
		fmt.Fprintf(w, "%-24s %12.1f %10.1f %10.1f %8s %8s %10s %10s %10s\n",
			s.Name, per(s.Calls), per(s.Errors), per(s.Retries+s.Failovers+s.Reconnects),
			pct(s.Errors, s.Calls), pct(s.Hits, s.Hits+s.Misses),
			l.dur(l.MeanNs, time.Microsecond), l.dur(l.P50Ns, 10*time.Nanosecond), l.dur(l.P99Ns, 10*time.Nanosecond))
	}

	if len(st.Peers) > 0 {
		sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Addr < st.Peers[j].Addr })
		fmt.Fprintf(w, "\n%-24s %12s %10s %8s %10s %10s\n",
			"PEER", "CALLS"+unit, "ERRS"+unit, "ERR%", "P50", "P99")
		for _, p := range st.Peers {
			l := p.Latency
			fmt.Fprintf(w, "%-24s %12.1f %10.1f %8s %10s %10s\n",
				p.Addr, per(p.Calls), per(p.Errors), pct(p.Errors, p.Calls),
				l.dur(l.P50Ns, 10*time.Nanosecond), l.dur(l.P99Ns, 10*time.Nanosecond))
		}
	}

	// One-line netd link summary: sockets vs peer sessions. A peer that has
	// sent a bulk request holds two sockets (call + bulk) under one session,
	// so conns > sessions is the normal shape.
	if conns, ok := st.Gauges["netd.conns_live"]; ok {
		fmt.Fprintf(w, "\nnetd link: CONNS %d  SESSIONS %d  SENDQ %d\n",
			conns, st.Gauges["netd.sessions_live"], st.Gauges["netd.sendq_depth"])
	}

	// A footer of every gauge the plane interned.
	if len(st.Gauges) > 0 {
		pairs := make([]string, 0, len(st.Gauges))
		for n, v := range st.Gauges {
			pairs = append(pairs, fmt.Sprintf("%s=%d", n, v))
		}
		sort.Strings(pairs)
		fmt.Fprintf(w, "\n%s\n", strings.Join(pairs, "  "))
	}
}
