package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// synthLat builds a consistent HistSnapshot: count calls all in one
// bucket [lo, hi).
func synthLat(lo, hi int64, count uint64) scstats.HistSnapshot {
	return scstats.HistSnapshot{
		Count: count,
		SumNs: int64(count) * (lo + hi) / 2,
		Buckets: []scstats.HistBucket{
			{Lo: lo, Hi: hi, Count: count},
		},
	}
}

func TestStatzDeltaWindowMath(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	prev := statzSample{
		at: t0,
		Sample: scstats.Sample{
			Subcontracts: []scstats.Snapshot{
				{Name: "busy", Calls: 100, Errors: 2, Lat: synthLat(1000, 2000, 100)},
				{Name: "idle", Calls: 7, Lat: synthLat(1000, 2000, 7)},
			},
			Peers: []scstats.PeerSnapshot{
				{Addr: "10.0.0.1:700", Calls: 50, Lat: synthLat(1000, 2000, 50)},
			},
			Hists: []scstats.NamedHistSnapshot{
				{Name: "dispatch.queue_delay", Hist: synthLat(100, 200, 10)},
			},
		},
		bufs: buffer.Ledger{Gets: 300, Misses: 4, Puts: 298, Drops: 1},
	}
	cur := statzSample{
		at: t0.Add(10 * time.Second),
		Sample: scstats.Sample{
			Subcontracts: []scstats.Snapshot{
				{Name: "busy", Calls: 150, Errors: 3, Lat: synthLat(1000, 2000, 150)},
				{Name: "idle", Calls: 7, Lat: synthLat(1000, 2000, 7)},
				{Name: "fresh", Calls: 20, Lat: synthLat(1000, 2000, 20)},
			},
			Peers: []scstats.PeerSnapshot{
				{Addr: "10.0.0.1:700", Calls: 80, Lat: synthLat(1000, 2000, 80)},
			},
			Hists: []scstats.NamedHistSnapshot{
				{Name: "dispatch.queue_delay", Hist: synthLat(100, 200, 25)},
			},
		},
		bufs:     buffer.Ledger{Gets: 450, Misses: 4, Puts: 450, Drops: 1},
		inflight: 16,
	}

	resp := statzDelta(cur, prev, 10, true)
	if resp.WindowSeconds != 10 {
		t.Errorf("WindowSeconds = %v", resp.WindowSeconds)
	}
	if resp.ServeInflight != 16 {
		t.Errorf("ServeInflight = %d, want the level at the window's end, 16", resp.ServeInflight)
	}
	bySC := map[string]statzSC{}
	for _, sc := range resp.Subcontracts {
		bySC[sc.Name] = sc
	}
	if _, there := bySC["idle"]; there {
		t.Error("idle subcontract (no delta) should be filtered out")
	}
	busy := bySC["busy"]
	if busy.Calls != 50 || busy.Errors != 1 {
		t.Errorf("busy delta = %d calls %d errors, want 50/1", busy.Calls, busy.Errors)
	}
	if math.Abs(busy.CallsPerSec-5.0) > 1e-9 {
		t.Errorf("busy rate = %v, want 5/s", busy.CallsPerSec)
	}
	if busy.Latency.Count != 50 {
		t.Errorf("busy window latency count = %d, want 50", busy.Latency.Count)
	}
	if len(busy.Latency.Buckets) == 0 {
		t.Error("buckets=1 yielded no raw buckets")
	}
	// A subcontract new since prev diffs against zero.
	if fresh := bySC["fresh"]; fresh.Calls != 20 {
		t.Errorf("fresh delta = %d, want full 20", fresh.Calls)
	}

	if len(resp.Peers) != 1 || resp.Peers[0].Calls != 30 {
		t.Fatalf("peer delta = %+v, want one peer with 30 calls", resp.Peers)
	}
	if len(resp.Hists) != 1 || resp.Hists[0].Latency.Count != 15 {
		t.Fatalf("hist delta = %+v, want dispatch.queue_delay count 15", resp.Hists)
	}
	if want := (buffer.Ledger{Gets: 150, Puts: 152}); resp.Buffers != want {
		t.Errorf("buffer ledger delta = %+v, want %+v", resp.Buffers, want)
	}
	// Percentiles of the window fall inside the only populated bucket.
	if p := busy.Latency.P99Ns; p < 1000 || p > 2000 {
		t.Errorf("window p99 = %d, want within [1000,2000]", p)
	}
}

func TestStatzEndpoint(t *testing.T) {
	s := startPlane(t)
	twoMachineCall(t)

	code, body := get(t, "http://"+s.Addr()+"/statz?window=0&buckets=1")
	if code != http.StatusOK {
		t.Fatalf("/statz: status %d, body %s", code, body)
	}
	var resp struct {
		Now           string  `json:"now"`
		WindowSeconds float64 `json:"window_seconds"`
		Subcontracts  []struct {
			Name    string  `json:"name"`
			Calls   uint64  `json:"calls"`
			Rate    float64 `json:"calls_per_sec"`
			Latency struct {
				Count   uint64     `json:"count"`
				P50Ns   int64      `json:"p50_ns"`
				P99Ns   int64      `json:"p99_ns"`
				Buckets [][3]int64 `json:"buckets"`
			} `json:"latency"`
		} `json:"subcontracts"`
		Peers []struct {
			Addr  string `json:"addr"`
			Calls uint64 `json:"calls"`
		} `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/statz not JSON: %v\n%s", err, body)
	}
	if resp.WindowSeconds <= 0 {
		t.Errorf("window_seconds = %v, want > 0 (totals since start)", resp.WindowSeconds)
	}
	found := map[string]bool{}
	for _, sc := range resp.Subcontracts {
		found[sc.Name] = true
		if sc.Name == "netd" {
			if sc.Calls == 0 || sc.Latency.Count == 0 {
				t.Errorf("netd: calls=%d latency.count=%d, want > 0 (always-on)", sc.Calls, sc.Latency.Count)
			}
			if sc.Latency.P50Ns <= 0 || sc.Latency.P99Ns < sc.Latency.P50Ns {
				t.Errorf("netd percentiles p50=%d p99=%d", sc.Latency.P50Ns, sc.Latency.P99Ns)
			}
			if len(sc.Latency.Buckets) == 0 {
				t.Error("netd: buckets=1 returned no buckets")
			}
		}
	}
	for _, want := range []string{"netd", "singleton"} {
		if !found[want] {
			t.Errorf("/statz missing subcontract %q (have %v)", want, found)
		}
	}
	if len(resp.Peers) == 0 {
		t.Error("/statz has no peers after a cross-machine call")
	}

	// A windowed request is also served.
	code, body = get(t, "http://"+s.Addr()+"/statz?window=100ms")
	if code != http.StatusOK || !strings.Contains(body, "window_seconds") {
		t.Errorf("/statz?window=100ms: status %d\n%s", code, body)
	}
	// Bad windows are rejected.
	if code, _ := get(t, "http://"+s.Addr()+"/statz?window=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad window: status %d, want 400", code)
	}
}

// TestStatzWindowIsAfterTheRequest: a window counts the calls recorded
// while it runs and none recorded before the request, and reports the time
// that actually elapsed.
func TestStatzWindowIsAfterTheRequest(t *testing.T) {
	s := startPlane(t)
	sc := scstats.For("statz-window")
	for i := 0; i < 5; i++ {
		sc.EndCall(sc.Begin(), 1, 0, nil) // before the request: not in the window
	}
	type result struct {
		code int
		body string
	}
	res := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/statz?window=1s")
		if err != nil {
			res <- result{body: err.Error()}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		res <- result{resp.StatusCode, string(body)}
	}()
	time.Sleep(300 * time.Millisecond) // into the window, well before its end
	for i := 0; i < 3; i++ {
		sc.EndCall(sc.Begin(), 1, 0, errors.New("boom"))
	}
	r := <-res
	var resp statzResponse
	if r.code != http.StatusOK || json.Unmarshal([]byte(r.body), &resp) != nil {
		t.Fatalf("/statz?window=1s: status %d, body %s", r.code, r.body)
	}
	if resp.WindowSeconds < 1 || resp.WindowSeconds > 5 {
		t.Errorf("window_seconds = %v, want the 1 s that elapsed", resp.WindowSeconds)
	}
	for _, row := range resp.Subcontracts {
		if row.Name == "statz-window" {
			if row.Calls != 3 || row.Errors != 3 || row.Latency.Count != 3 {
				t.Errorf("window row: %d calls %d errors %d latencies, want the 3 recorded inside it", row.Calls, row.Errors, row.Latency.Count)
			}
			return
		}
	}
	t.Errorf("no statz-window row in\n%s", r.body)
}

// TestStatzWindowEndsAtClose: a request for a window returns once the
// plane closes, not when the window ends.
func TestStatzWindowEndsAtClose(t *testing.T) {
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := request{query: url.Values{"window": {"10m"}}, done: s.done}
	ended := make(chan struct{})
	go func() {
		handleStatz(time.Now())(&response{status: 200}, &r)
		close(ended)
	}()
	s.Close() // whether the handler is waiting yet or not, it must return
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("a /statz window request outlived the plane's Close by 5 s")
	}
}

// statzQueries are /statz query values, window then buckets, seeding
// FuzzStatzQuery.
var statzQueries = []struct{ name, window, buckets string }{
	{"default", "", ""},
	{"totals", "0", "1"},
	{"totals-unit", "0s", ""},
	{"ten-seconds", "10s", "0"},
	{"negative", "-1s", ""},
	{"negative-zero", "-0", "1"},
	{"bogus", "bogus", ""},
	{"bare-number", "10", ""},
	{"past-max", "1h", "1"},
	{"overflow", "9999999999h", ""},
	{"fraction", "1.5ms", "1"},
	{"binary", "\x00\xff", "\xff"},
}

// FuzzStatzQuery: whatever the query, /statz through the responder never
// panics; a window that is not a duration, or is negative, gets 400; any
// other gets 200 and a JSON body, and no window waits past statzMaxWin.
func FuzzStatzQuery(f *testing.F) {
	for _, q := range statzQueries {
		f.Add(q.window, q.buckets)
		if *updateCorpus {
			writeSeed(f, "FuzzStatzQuery", q.name, fmt.Sprintf("string(%q)\nstring(%q)\n", q.window, q.buckets))
		}
	}
	// A plane an hour old, and a closed done, so no window waits: the clamp
	// is read off the window the handler would wait.
	h := handleStatz(time.Now().Add(-time.Hour))
	closed := make(chan struct{})
	close(closed)
	f.Fuzz(func(t *testing.T, window, buckets string) {
		head := "GET /statz?" + url.Values{"window": {window}, "buckets": {buckets}}.Encode() + " HTTP/1.1\r\n\r\n"
		r, status := readRequest(strings.NewReader(head))
		if status != 0 {
			if len(head) >= maxHead {
				return // the responder's head bound, not /statz, refuses it
			}
			t.Fatalf("%q refused with %d", head, status)
		}
		w := &response{status: 200}
		r.done = closed
		h(w, &r)
		d, err := time.ParseDuration(window)
		if window != "" && (err != nil || d < 0) {
			if w.status != 400 {
				t.Fatalf("window %q: status %d, want 400", window, w.status)
			}
			return
		}
		var resp statzResponse
		if w.status != 200 || json.Unmarshal(w.Bytes(), &resp) != nil {
			t.Fatalf("window %q: status %d, body %q, want 200 and JSON", window, w.status, w.Bytes())
		}
		if wait, _ := parseWindow(window); wait > statzMaxWin || wait != 0 && resp.WindowSeconds >= time.Hour.Seconds() {
			t.Fatalf("window %q: waits %v and spans %v s, past the %v clamp", window, wait, resp.WindowSeconds, statzMaxWin)
		}
	})
}
