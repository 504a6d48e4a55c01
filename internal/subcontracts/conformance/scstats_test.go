package conformance_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/scstats"
	"repro/internal/sctest"
)

// TestMain runs the conformance battery and then audits the per-subcontract
// metrics registry: after the suite has driven every policy, the scstats
// registry must show nonzero call and latency counters for the core
// subcontracts. This is the end-to-end proof that the ops-vector
// instrumentation actually fires on real traffic, not just in unit tests.
// The battery runs with recycled storage poisoned, and it also audits
// quiescence: it starts executors, servers and dispatch engines, and
// everything it started must have wound down and put its buffers back —
// a serve path that leaks a worker or a frame per run fails here, not in
// production.
func TestMain(m *testing.M) {
	sctest.PoisonRecycled()
	base := sctest.Snapshot()
	code := m.Run()
	if code == 0 {
		if err := auditStats(); err != nil {
			fmt.Fprintf(os.Stderr, "scstats audit after conformance run: %v\n", err)
			code = 1
		}
	}
	if code == 0 {
		if err := sctest.AssertQuiesced(base); err != nil {
			fmt.Fprintf(os.Stderr, "quiescence audit after conformance run: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

func auditStats() error {
	byName := make(map[string]scstats.Snapshot)
	for _, sn := range scstats.AllSnapshots() {
		byName[sn.Name] = sn
	}
	// Every subcontract the battery exercises must have recorded calls,
	// and latency observations (every call is recorded).
	// This is the full instrumented name set: singleton, priority and txn
	// report through the shared doorsc ops (scstats.For(o.SCName)), simplex
	// splits its doorless same-address-space path out as "simplex(local)",
	// and value is driven by TestValueInstrumentation below. A subcontract
	// added without instrumentation fails here, not silently.
	for _, name := range []string{
		"singleton", "simplex", "simplex(local)", "cluster", "replicon",
		"caching", "reconnectable", "txn", "priority", "shm", "video",
		"value",
	} {
		sn, ok := byName[name]
		if !ok {
			return fmt.Errorf("subcontract %q recorded no calls", name)
		}
		if sn.Calls == 0 {
			return fmt.Errorf("subcontract %q: zero call counter", name)
		}
		if sn.Lat.Count == 0 {
			return fmt.Errorf("subcontract %q: zero latency samples", name)
		}
	}
	// The battery's expired-deadline and cancellation cases must have been
	// classified into their dedicated counters somewhere.
	var deadline, cancelled uint64
	for _, sn := range byName {
		deadline += sn.DeadlineExceeded
		cancelled += sn.Cancelled
	}
	if deadline == 0 {
		return fmt.Errorf("no subcontract recorded a deadline-exceeded ending")
	}
	if cancelled == 0 {
		return fmt.Errorf("no subcontract recorded a cancelled ending")
	}
	return nil
}
