package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

func TestStatzRingBeforeAcrossWraparound(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	r := newStatzRing(3, t0)

	if _, ok := r.before(t0); ok {
		t.Fatal("empty ring returned a sample")
	}

	// Push 5 samples at t0+1s .. t0+5s into a capacity-3 ring: the ring
	// now holds t0+3s, t0+4s, t0+5s with its write cursor wrapped.
	for i := 1; i <= 5; i++ {
		r.push(t0.Add(time.Duration(i) * time.Second))
	}

	// A cutoff between stored samples picks the newest at-or-before it.
	s, ok := r.before(t0.Add(4500 * time.Millisecond))
	if !ok || !s.at.Equal(t0.Add(4*time.Second)) {
		t.Errorf("before(t0+4.5s) = %v, want t0+4s", s.at)
	}
	// A cutoff past everything picks the newest sample.
	s, _ = r.before(t0.Add(time.Hour))
	if !s.at.Equal(t0.Add(5 * time.Second)) {
		t.Errorf("before(+1h) = %v, want t0+5s", s.at)
	}
	// An exact-match cutoff is inclusive.
	s, _ = r.before(t0.Add(3 * time.Second))
	if !s.at.Equal(t0.Add(3 * time.Second)) {
		t.Errorf("before(t0+3s) = %v, want t0+3s (inclusive)", s.at)
	}
	// A cutoff older than everything stored clamps to the oldest
	// surviving sample (t0+1s and t0+2s were overwritten).
	s, ok = r.before(t0)
	if !ok || !s.at.Equal(t0.Add(3*time.Second)) {
		t.Errorf("before(t0) = %v ok=%v, want clamp to t0+3s", s.at, ok)
	}
}

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
		scs: []scstats.Snapshot{
			{Name: "busy", Calls: 100, Errors: 2, Lat: synthLat(1000, 2000, 100)},
			{Name: "idle", Calls: 7, Lat: synthLat(1000, 2000, 7)},
		},
		peers: []scstats.PeerSnapshot{
			{Addr: "10.0.0.1:700", Calls: 50, Lat: synthLat(1000, 2000, 50)},
		},
		hists: []scstats.NamedHistSnapshot{
			{Name: "dispatch.queue_delay", Hist: synthLat(100, 200, 10)},
		},
		bufs: buffer.Ledger{Gets: 300, Misses: 4, Puts: 298, Drops: 1},
	}
	cur := statzSample{
		at: t0.Add(10 * time.Second),
		scs: []scstats.Snapshot{
			{Name: "busy", Calls: 150, Errors: 3, Lat: synthLat(1000, 2000, 150)},
			{Name: "idle", Calls: 7, Lat: synthLat(1000, 2000, 7)},
			{Name: "fresh", Calls: 20, Lat: synthLat(1000, 2000, 20)},
		},
		peers: []scstats.PeerSnapshot{
			{Addr: "10.0.0.1:700", Calls: 80, Lat: synthLat(1000, 2000, 80)},
		},
		hists: []scstats.NamedHistSnapshot{
			{Name: "dispatch.queue_delay", Hist: synthLat(100, 200, 25)},
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

	// A windowed request is also served (prev may clamp to ring start).
	code, body = get(t, "http://"+s.Addr()+"/statz?window=10s")
	if code != http.StatusOK || !strings.Contains(body, "window_seconds") {
		t.Errorf("/statz?window=10s: status %d\n%s", code, body)
	}
	// Bad windows are rejected.
	if code, _ := get(t, "http://"+s.Addr()+"/statz?window=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad window: status %d, want 400", code)
	}
}

func TestStatzRingPacksSamples(t *testing.T) {
	// A window's delta against a sample that went through the ring is, byte
	// for byte, the delta against the sample itself: the ring keeps bucket
	// indices and counts, and the bounds come back when they are asked for.
	sc, hist, peer := scstats.For("ring-test"), scstats.HistFor("ring-test.hist"), scstats.PeerFor("ring-test:1")
	// Every exported counter moves, each by its own amount, so a counter the
	// delta reads and the packed form does not carry shows up as a difference
	// — including one added to Snapshot after this test was written.
	bump := func(block any, by uint64) {
		v := reflect.ValueOf(block).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if c, ok := v.Field(i).Addr().Interface().(*atomic.Uint64); ok {
				c.Add(by * uint64(i+1))
			}
		}
	}
	record := func(n int) {
		for i := 1; i <= n; i++ {
			d := time.Duration(i*i) * time.Microsecond
			sc.RecordLatency(d)
			sc.EndCall(sc.Begin(), uint32(i%3), 0, nil)
			hist.Observe(d, uint64(i))
			peer.Record(int64(i)*1000, 0, nil)
		}
		bump(sc, uint64(n))
		bump(peer, uint64(n))
	}
	t0 := time.Now()
	record(200)
	older := takeStatzSample(t0) // and the ring's own sample, with nothing recorded between
	r := newStatzRing(4, t0)
	r.push(t0)
	record(300)
	cur := takeStatzSample(t0.Add(10 * time.Second))
	kept, ok := r.before(t0)
	if !ok {
		t.Fatal("the ring lost its only sample")
	}
	want, _ := json.Marshal(statzDelta(cur, older, 10, true))
	got, _ := json.Marshal(statzDelta(cur, kept, 10, true))
	if !bytes.Equal(got, want) {
		t.Fatalf("delta against the ring's copy differs:\n got %s\nwant %s", got, want)
	}
	if !bytes.Contains(want, []byte(`"name":"ring-test"`)) || !bytes.Contains(want, []byte(`"ops":[`)) {
		t.Fatalf("the delta under test has no per-op histograms: %s", want)
	}
	// Once the ring has wrapped, a sample reuses the evicted slot's arrays:
	// taken off the live registry, it allocates nothing.
	for i := 0; i < 4; i++ {
		r.push(t0)
	}
	if n := testing.AllocsPerRun(50, func() { r.push(t0) }); n != 0 {
		t.Errorf("a sample into a wrapped ring allocates %.0f objects, want 0", n)
	}
}
