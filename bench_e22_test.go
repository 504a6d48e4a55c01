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
// The latency plane v2 records every call into the sharded HDR histogram
// (scstats.RecordAlways), where v1 timed 1 call in 8 (EXPERIMENTS E22 keeps
// that comparison; the v1 mode is gone). E22 prices the record on the
// E14/E17 singleton echo, in three record modes:
//
//   - "off":      Begin returns 0, EndCall is a branch. The floor — what
//     the call path costs with metrics compiled in but disabled.
//   - "timed":    both clocks read on every call but the histogram write
//     skipped — isolates the clock cost from the record cost, and is the
//     baseline the acceptance guard diffs "always" against (record
//     proper must be ≤ 15 ns, 0 allocs).
//   - "always":   the v2 default — clock pair + striped bucket add +
//     exemplar check on every call.
//
// Parallelism ∈ {1, 64} shows the striped shards absorbing concurrent
// recording; a shared hot counter would fail the P64 cell, not the P1.
//
// The "always" cells also report the window's p50/p99/p999 (from the
// singleton subcontract's histogram delta over the measured calls) as
// benchmark metrics, so BENCH_trace.json records percentile fields.

// e22Mode maps an E22 cell name to its record mode.
func e22Mode(b *testing.B, mode string) scstats.RecordMode {
	switch mode {
	case "off":
		return scstats.RecordOff
	case "timed":
		return scstats.RecordTimed
	case "always":
		return scstats.RecordAlways
	default:
		b.Fatalf("unknown E22 mode %q", mode)
		return scstats.RecordAlways
	}
}

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

// E22RecordCost runs the E14 singleton echo with the given scstats
// record mode under parallelism concurrent callers.
func E22RecordCost(mode string, parallelism int) func(*testing.B) {
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
		prev := scstats.Mode()
		scstats.SetRecordMode(e22Mode(b, mode))
		defer scstats.SetRecordMode(prev)
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
		if mode == "always" {
			// The measured calls' own percentiles, from the histogram the
			// cell just exercised — the plane observing itself.
			win := e22SingletonLat().Sub(before)
			if win.Count > 0 {
				b.ReportMetric(float64(win.Quantile(0.50)), "p50_ns")
				b.ReportMetric(float64(win.Quantile(0.99)), "p99_ns")
				b.ReportMetric(float64(win.Quantile(0.999)), "p999_ns")
			}
		}
	}
}
