package telemetry

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/scstats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics.golden from the current renderer")

// goldenMasks blank the numbers that depend on the per-process tick
// calibration: bucket bounds, histogram sums and exemplar values.
var goldenMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`le="[^"+]*"`), `le="#"`},
	{regexp.MustCompile(`(_sum(\{[^}]*\})?) \S+`), `$1 #`},
	{regexp.MustCompile(`(# \{trace_id="[0-9a-f]+"\}) \S+`), `$1 #`},
}

// TestMetricsGolden pins /metrics' rendering of a registry seeded with
// known calls byte for byte, masks aside: the benchmark and sctop parse
// this text. Every duration is a power-of-two tick count, so each lands in
// a bucket of its own whatever the calibration.
func TestMetricsGolden(t *testing.T) {
	scstats.Reset()
	sc := scstats.For("golden")
	now := scstats.HistFor("golden.fill").Start()
	ago := func(shift uint) int64 { return now - 1<<shift }
	sc.Calls.Add(7)
	sc.EndCall(ago(12), 1, 0, nil)
	sc.EndCall(ago(14), 1, 0, errors.New("boom"))
	sc.EndCall(ago(16), 2, 0, kernel.ErrDeadlineExceeded)
	sc.EndCall(ago(18), scstats.OpNone, 0, kernel.ErrCancelled)
	sc.EndCall(ago(20), 3, 0xfeedface, nil)
	sc.Retries.Add(2)
	sc.Hits.Add(3)
	sc.Misses.Add(1)
	peer := scstats.PeerFor("golden:1")
	peer.Record(1<<13, 0xabcdef, nil)
	peer.Record(1<<15, 0, errors.New("lost"))
	fill := scstats.HistFor("golden.fill")
	fill.ObserveSince(ago(17), 0)
	fill.ObserveSince(ago(19), 0x1234)
	scstats.GaugeFor("golden.level").Set(5)
	torn := scstats.GaugeFor("wal.torn_tails_truncated")
	t.Cleanup(func() { torn.Set(0) })
	torn.Set(4)

	var out bytes.Buffer
	writeMetrics(&out)
	var kept []string
	for _, line := range strings.Split(out.String(), "\n") {
		family := strings.HasPrefix(line, "# HELP subcontract_") || strings.HasPrefix(line, "# TYPE subcontract_") ||
			strings.HasPrefix(line, "# HELP netd_peer_") || strings.HasPrefix(line, "# TYPE netd_peer_")
		if family || strings.Contains(line, "golden") || strings.Contains(line, "wal_torn_tails_truncated") {
			for _, m := range goldenMasks {
				line = m.re.ReplaceAllString(line, m.with)
			}
			kept = append(kept, line)
		}
	}
	got := strings.Join(kept, "\n") + "\n"
	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s (rerun with -update-golden to accept):\n%s", path, got)
	}
}
