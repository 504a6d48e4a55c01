package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/scstats"
)

// Scrapes: what the program's own always-on instrumentation says, read
// from outside. Two scrapes bracket a window and every figure is their
// difference, so nothing before the window (preload, warm-up, probes)
// leaks in.

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// statzLat is one histogram of the server's /statz?window=0&buckets=1.
type statzLat struct {
	Count   int64    `json:"count"`
	Buckets []bucket `json:"buckets"`
}

type statzDoc struct {
	Subcontracts []struct {
		Name    string   `json:"name"`
		Calls   int64    `json:"calls"`
		Latency statzLat `json:"latency"`
	} `json:"subcontracts"`
	Hists []struct {
		Name    string   `json:"name"`
		Latency statzLat `json:"latency"`
	} `json:"hists"`
}

// serverScrape is one reading of the server's telemetry plane.
type serverScrape struct {
	hists    map[string][]bucket // subcontract or named histogram → totals since start
	counters map[string]float64  // unlabelled /metrics series
}

func scrapeServer(base string) (*serverScrape, error) {
	body, err := httpGet(base + "/statz?window=0&buckets=1")
	if err != nil {
		return nil, err
	}
	var doc statzDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("/statz: %w", err)
	}
	s := &serverScrape{hists: make(map[string][]bucket)}
	for _, sc := range doc.Subcontracts {
		s.hists[sc.Name] = sc.Latency.Buckets
	}
	for _, h := range doc.Hists {
		s.hists[h.Name] = h.Latency.Buckets
	}
	body, err = httpGet(base + "/metrics")
	if err != nil {
		return nil, err
	}
	s.counters = parseMetrics(string(body))
	return s, nil
}

// parseMetrics reads the unlabelled series of a Prometheus text
// exposition ("name value"); labelled series and comments are skipped.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.Fields(val)[0], 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// latDelta is one histogram over a window: count, Σ and quantiles.
type latDelta struct {
	n      float64
	sumUs  float64
	meanUs float64
	p99Us  float64
}

func latFromBuckets(bs []bucket) latDelta {
	d := latDelta{n: float64(bucketCount(bs)), sumUs: bucketSum(bs) / 1e3, p99Us: bucketQuantile(bs, 0.99) / 1e3}
	if d.n > 0 {
		d.meanUs = d.sumUs / d.n
	}
	return d
}

func latFromSnapshot(h scstats.HistSnapshot) latDelta {
	d := latDelta{n: float64(h.Count), sumUs: float64(h.SumNs) / 1e3, p99Us: float64(h.Quantile(0.99)) / 1e3}
	if d.n > 0 {
		d.meanUs = d.sumUs / d.n
	}
	return d
}

// serverDelta is the server's side of a window.
type serverDelta struct{ a, b *serverScrape }

func (d serverDelta) lat(name string) latDelta {
	return latFromBuckets(subBuckets(d.b.hists[name], d.a.hists[name]))
}

func (d serverDelta) counter(name string) float64 { return d.b.counters[name] - d.a.counters[name] }

// clientScrape is one reading of the load generator's own process: the
// same scstats registry the server serves over HTTP, read directly, plus
// the Go runtime's allocation and GC counters.
type clientScrape struct {
	subcontracts map[string]scstats.Snapshot
	hists        map[string]scstats.HistSnapshot
	gauges       map[string]int64
	mallocs      uint64
	gcPauseNs    uint64
}

func scrapeClient() *clientScrape {
	s := &clientScrape{
		subcontracts: make(map[string]scstats.Snapshot),
		hists:        make(map[string]scstats.HistSnapshot),
		gauges:       make(map[string]int64),
	}
	for _, sn := range scstats.AllSnapshots() {
		s.subcontracts[sn.Name] = sn
	}
	for _, h := range scstats.HistSnapshots() {
		s.hists[h.Name] = h.Hist
	}
	for _, g := range scstats.AllGauges() {
		s.gauges[g.Name] = g.Value
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.gcPauseNs = ms.Mallocs, ms.PauseTotalNs
	return s
}

// clientDelta is the load generator's side of a window.
type clientDelta struct{ a, b *clientScrape }

func (d clientDelta) lat(subcontract string) latDelta {
	return latFromSnapshot(d.b.subcontracts[subcontract].Lat.Sub(d.a.subcontracts[subcontract].Lat))
}

func (d clientDelta) hist(name string) latDelta {
	return latFromSnapshot(d.b.hists[name].Sub(d.a.hists[name]))
}

func (d clientDelta) gauge(name string) float64 { return float64(d.b.gauges[name] - d.a.gauges[name]) }

// ratio is a/b, 0 when b is 0: a share or a per-call figure of a window
// in which the denominator never happened is reported as 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
