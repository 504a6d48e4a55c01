package main

import (
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/telemetry"
)

func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }

func TestSlowURL(t *testing.T) {
	if got := slowURL("http://h:6060/metrics"); got != "http://h:6060/traces/slow" {
		t.Errorf("slowURL = %q", got)
	}
	if got := statzURL("http://h:6060/metrics", "0"); got != "http://h:6060/statz?window=0" {
		t.Errorf("statzURL = %q", got)
	}
}

// TestRenderFromPlane: against a live plane after recorded calls, both
// views print the subcontract row with its calls, RETRY as retries +
// failovers + reconnects, ERR% and HIT%, the PEERS row, the netd link line
// and the gauge footer.
func TestRenderFromPlane(t *testing.T) {
	tp, err := telemetry.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	sc := scstats.For("sctop-test")
	for i := 0; i < 9; i++ {
		sc.EndCall(sc.Begin(), 1, 0, nil)
	}
	sc.EndCall(sc.Begin(), 1, 0, errors.New("boom"))
	sc.Retries.Add(1)
	sc.Failovers.Add(2)
	sc.Reconnects.Add(3)
	sc.Hits.Add(3)
	sc.Misses.Add(1)
	scstats.PeerFor("10.9.9.9:7040").Record(5000, 0, nil)

	client := &http.Client{Timeout: 5 * time.Second}
	metrics := "http://" + tp.Addr() + "/metrics"
	for _, tc := range []struct {
		window string
		rates  bool
		head   string
	}{{"0", false, "CALLS "}, {"1s", true, "CALLS/s"}} {
		var st statz
		if err := getJSON(client, statzURL(metrics, tc.window), &st); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		render(&out, &st, tc.rates)
		text := out.String()
		row := func(name string) []string {
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] == name {
					return f
				}
			}
			t.Fatalf("window=%s: no %s row in\n%s", tc.window, name, text)
			return nil
		}
		if !strings.Contains(text, tc.head) {
			t.Errorf("window=%s: header lacks %q:\n%s", tc.window, tc.head, text)
		}
		f := row("sctop-test")
		if !tc.rates && (f[1] != "10.0" || f[2] != "1.0" || f[3] != "6.0") {
			t.Errorf("totals: calls %s errs %s retry %s, want 10.0 1.0 6.0", f[1], f[2], f[3])
		}
		if f[4] != "10.0" || f[5] != "75.0" || f[6] == "-" {
			t.Errorf("window=%s: ERR%% %s HIT%% %s MEAN %s, want 10.0 75.0 and a latency", tc.window, f[4], f[5], f[6])
		}
		if p := row("10.9.9.9:7040"); !tc.rates && p[1] != "1.0" {
			t.Errorf("peer calls %s, want 1.0", p[1])
		}
		// sctest interns netd.conns_live, so the plane prints the link line.
		for _, want := range []string{"netd link: CONNS 0  SESSIONS 0", "netd.conns_live=0", "buffer.gets="} {
			if !strings.Contains(text, want) {
				t.Errorf("window=%s: output lacks %q:\n%s", tc.window, want, text)
			}
		}
	}
}
