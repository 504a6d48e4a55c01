package repro_test

import (
	"testing"

	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

// ---------------------------------------------------------------------
// E22 — always-on latency recording.
//
// The latency plane v2 records every call into the sharded HDR histogram,
// where v1 timed 1 call in 8 (EXPERIMENTS E22 keeps that comparison; the
// v1 mode is gone, and the off and timed modes it was decomposed with
// went in E35). E22 runs the E14/E17 singleton echo with every call
// recorded — clock pair + striped bucket add + exemplar check — so its
// cells track what the plane costs a real call; the record proper is
// priced in isolation by scstats' TestRecordCostGuard.
//
// Parallelism ∈ {1, 64} shows the striped shards absorbing concurrent
// recording; a shared hot counter would fail the P64 cell, not the P1.
//
// The cells also report the window's p50/p99/p999 (from the singleton
// subcontract's histogram delta over the measured calls) as benchmark
// metrics, so BENCH_trace.json records percentile fields.

// e22SingletonLat snapshots the singleton subcontract's merged latency
// histogram (the one the echo call records into).
func e22SingletonLat() scstats.HistSnapshot {
	for _, sn := range scstats.AllSnapshots() {
		if sn.Name == "singleton" {
			return sn.Lat
		}
	}
	return scstats.HistSnapshot{}
}

// E22RecordCost runs the E14 singleton echo under parallelism concurrent
// callers.
func E22RecordCost(parallelism int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		obj, _ := singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
		remote, err := sctest.Transfer(obj, w.cli, echoMT)
		if err != nil {
			b.Fatal(err)
		}
		if err := callEcho(remote, nil); err != nil { // warm the path
			b.Fatal(err)
		}
		before := e22SingletonLat()
		b.ReportAllocs()
		e16Split(b, parallelism, func(n int) error {
			for i := 0; i < n; i++ {
				if err := callEcho(remote, nil); err != nil {
					return err
				}
			}
			return nil
		})
		// The measured calls' own percentiles, from the histogram the cell
		// just exercised — the plane observing itself.
		win := e22SingletonLat().Sub(before)
		if win.Count > 0 {
			b.ReportMetric(float64(win.Quantile(0.50)), "p50_ns")
			b.ReportMetric(float64(win.Quantile(0.99)), "p99_ns")
			b.ReportMetric(float64(win.Quantile(0.999)), "p999_ns")
		}
	}
}

// TestE22PercentileMetrics: the E22 cell reports window percentiles
// as benchmark metrics (the fields benchjson persists into
// BENCH_trace.json).
func TestE22PercentileMetrics(t *testing.T) {
	r := testing.Benchmark(E22RecordCost(1))
	for _, key := range []string{"p50_ns", "p99_ns", "p999_ns"} {
		v, ok := r.Extra[key]
		if !ok || v <= 0 {
			t.Errorf("E22 cell: metric %s = %v (ok=%v), want > 0", key, v, ok)
		}
	}
	if r.Extra["p99_ns"] < r.Extra["p50_ns"] {
		t.Errorf("p99 (%v) < p50 (%v)", r.Extra["p99_ns"], r.Extra["p50_ns"])
	}
}

// TestE22AlwaysOnAllocGuard is the acceptance guard for the always-on
// histogram: every echo call is recorded, and recording it adds zero
// allocations — the call plus a second record on the singleton's stats
// (the same op slot the call writes) allocates no more than the call.
func TestE22AlwaysOnAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector, so per-call allocations are not a fixed count (E29)")
	}
	remote := e17World(t)
	call := func() {
		if err := callEcho(remote, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := e22SingletonLat()
	const runs = 200
	plain := testing.AllocsPerRun(runs, call)
	// AllocsPerRun makes one warm-up call besides the runs.
	if got := e22SingletonLat().Sub(before).Count; got < runs+1 {
		t.Fatalf("singleton histogram grew by %d over %d echo calls; every call must be recorded", got, runs+1)
	}
	s := scstats.For("singleton")
	recorded := testing.AllocsPerRun(runs, func() {
		call()
		s.EndCall(s.Begin(), 0, 0xbeef, nil)
	})
	if recorded > plain {
		t.Errorf("echo plus a record allocates %.1f/op vs %.1f/op for the echo; record must be alloc-free", recorded, plain)
	}
}
