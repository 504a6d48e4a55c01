package repro_test

import (
	"testing"
	"time"

	"repro/internal/scstats"
)

// TestE22AlwaysOnAllocGuard is the acceptance guard for the always-on
// histogram: recording every call must add zero allocations over the
// same call with recording off.
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
	prev := scstats.Mode()
	defer scstats.SetRecordMode(prev)

	scstats.SetRecordMode(scstats.RecordOff)
	off := testing.AllocsPerRun(200, call)
	scstats.SetRecordMode(scstats.RecordAlways)
	always := testing.AllocsPerRun(200, call)
	if always > off {
		t.Errorf("always-on recording allocates %.1f/op vs %.1f/op off; record must be alloc-free", always, off)
	}
}

// TestE22AlwaysOnLatencyGuard bounds the record cost proper: the
// always-on call must stay within 15 ns/op of the "timed" mode, which
// reads the same two clocks but skips the histogram write — so the
// difference is exactly the striped bucket add plus the exemplar check.
// (The clock reads themselves are priced by the timed-vs-off E22 cells
// and reported honestly in EXPERIMENTS.md; on this hardware the TSC
// pair costs more than the bucket add.) Three attempts, like the E17
// guard, so machine noise has to hold three times to fail falsely.
func TestE22AlwaysOnLatencyGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes the striped atomic add a function call; the 15ns budget is a production-build bound")
	}
	remote := e17World(t)
	prev := scstats.Mode()
	defer scstats.SetRecordMode(prev)
	measure := func(m scstats.RecordMode) float64 {
		scstats.SetRecordMode(m)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := callEcho(remote, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	const margin = 15.0
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		timed := measure(scstats.RecordTimed)
		always := measure(scstats.RecordAlways)
		if always-timed <= margin {
			return
		}
		last = time.Duration(int64(always-timed)).String() + " over"
	}
	t.Errorf("always-on record exceeds the timed baseline by %s in 3 consecutive runs (budget 15ns)", last)
}

// TestE22PercentileMetrics: the "always" cell reports window percentiles
// as benchmark metrics (the fields benchjson persists into
// BENCH_trace.json).
func TestE22PercentileMetrics(t *testing.T) {
	r := testing.Benchmark(E22RecordCost("always", 1))
	for _, key := range []string{"p50_ns", "p99_ns", "p999_ns"} {
		v, ok := r.Extra[key]
		if !ok || v <= 0 {
			t.Errorf("E22 always cell: metric %s = %v (ok=%v), want > 0", key, v, ok)
		}
	}
	if r.Extra["p99_ns"] < r.Extra["p50_ns"] {
		t.Errorf("p99 (%v) < p50 (%v)", r.Extra["p99_ns"], r.Extra["p50_ns"])
	}
}
