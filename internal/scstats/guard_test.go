package scstats

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// recordBudgetNs bounds what the record costs over one uncontended atomic
// add, median of paired rounds. It is set from A/A runs of this guard on
// a 2-vCPU amd64 host (EXPERIMENTS E35): a clean record read 1.6–6.2 ns
// over 25 runs alone; one extra atomic add in the record read 11.4–13.0
// ns, and a record under a mutex 17.2–22.7 ns.
const recordBudgetNs = 10

// TestRecordCostGuard prices the always-on record — histOf(op).record,
// what EndCall adds to a call besides its second clock read — against the
// one atomic add on a counter of its own cache line that no record can
// do without.
func TestRecordCostGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes every atomic a function call; the budget is a production-build bound")
	}
	s := For("recordcostguard")
	var c struct {
		_ [64]byte
		n atomic.Uint64
		_ [56]byte
	}
	over := pairedOverheadNs(func() { c.n.Add(1) }, func() { s.histOf(3).record(1<<12, 0) })
	t.Logf("record over one atomic add: %.1f ns (budget %d ns)", over, recordBudgetNs)
	if over > recordBudgetNs {
		t.Errorf("record costs %.1f ns over one atomic add, median of paired rounds (budget %d ns)", over, recordBudgetNs)
	}
}

// pairedOverheadNs is what b costs over a, in ns per call: the median,
// over 101 rounds of 1,000 calls of each back to back (which goes first
// alternates), of the difference. Load from other packages in go test ./...
// moves both halves of most rounds alike, and a burst that lands on one
// half moves one round, which the median ignores.
func pairedOverheadNs(a, b func()) float64 {
	const rounds, calls = 101, 1000
	timed := func(f func()) float64 {
		start := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / calls
	}
	for r := 0; r < 10; r++ { // warm-up
		timed(a)
		timed(b)
	}
	diffs := make([]float64, rounds)
	for r := range diffs {
		if r%2 == 0 {
			base := timed(a)
			diffs[r] = timed(b) - base
		} else {
			over := timed(b)
			diffs[r] = over - timed(a)
		}
	}
	sort.Float64s(diffs)
	return diffs[rounds/2]
}
