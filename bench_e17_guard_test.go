package repro_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
	"repro/internal/trace"
)

// e17World exports the echo object and warms the call path once.
func e17World(t testing.TB) *core.Object {
	w := newWorld(t)
	obj, _ := singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
	remote, err := sctest.Transfer(obj, w.cli, echoMT)
	if err != nil {
		t.Fatal(err)
	}
	if err := callEcho(remote, nil); err != nil {
		t.Fatal(err)
	}
	return remote
}

// TestE17UntracedAllocGuard is the acceptance guard for the tracing
// hooks: an untraced call allocates exactly what it allocated before the
// hooks existed (the PR 3 small-call budget), and enabling head sampling
// without being picked adds zero further allocations.
func TestE17UntracedAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector, so per-call allocations are not a fixed count (E29)")
	}
	remote := e17World(t)
	call := func() {
		if err := callEcho(remote, nil); err != nil {
			t.Fatal(err)
		}
	}
	trace.SetSampling(0)
	off := testing.AllocsPerRun(200, call)
	// 7/op is the E14 echo figure as of the tracing PR, measured identical
	// with and without the hooks compiled in; a rise here means the
	// untraced path started allocating.
	if off > 7 {
		t.Errorf("untraced call allocates %.1f/op, budget 7 (E14 echo figure)", off)
	}
	trace.SetSampling(1 << 30)
	defer trace.SetSampling(0)
	unsampled := testing.AllocsPerRun(200, call)
	if unsampled > off {
		t.Errorf("unsampled call allocates %.1f/op vs %.1f/op untraced; sampling must be alloc-free", unsampled, off)
	}
}

// TestE17SampledAllocGuard bounds the recording cost: a fully traced
// call records its span set into the ring with at most 2 extra
// allocations per span over the untraced call (err.Error() text is the
// only heap escape, and the echo call never errors).
func TestE17SampledAllocGuard(t *testing.T) {
	remote := e17World(t)
	trace.SetSampling(0)
	off := testing.AllocsPerRun(200, func() {
		if err := callEcho(remote, nil); err != nil {
			t.Fatal(err)
		}
	})
	trace.SetSampling(1)
	defer trace.SetSampling(0)
	sampled := testing.AllocsPerRun(200, func() {
		if err := callEcho(remote, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The local echo records 3 spans (invoke, skeleton, plus the door
	// layer's); allow 2 per span on top of the untraced figure.
	if sampled > off+6 {
		t.Errorf("sampled call allocates %.1f/op vs %.1f/op untraced; want ≤ +6", sampled, off)
	}
}

// TestE17UntracedLatencyGuard bounds the hook tax in time: the untraced
// call with sampling enabled-but-not-picked must stay within 30 ns/op of
// the same call with sampling off (the E14 acceptance margin), measured as
// paired rounds (pairedOverheadNs).
func TestE17UntracedLatencyGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("a 30 ns margin means nothing under the race detector; TestE17UntracedAllocGuard still runs")
	}
	remote := e17World(t)
	defer trace.SetSampling(0)
	over := pairedOverheadNs(t, func() { trace.SetSampling(0) }, func() { trace.SetSampling(1 << 30) },
		func() error { return callEcho(remote, nil) })
	if over > 30 {
		t.Errorf("unsampled call exceeds the untraced call by %.1f ns, median of paired rounds (budget 30ns)", over)
	}
}

// pairedOverheadNs is what call costs with set-up b over set-up a, in ns
// per call: the median, over short rounds of the two back to back (which
// goes first alternates), of the difference. In a loaded go test ./...
// the other packages' load moves both halves of most rounds alike, and a
// burst that lands on one half moves one round, which the median ignores.
func pairedOverheadNs(t *testing.T, a, b func(), call func() error) float64 {
	const rounds, calls = 101, 1000
	timed := func(setup func()) float64 {
		setup()
		start := time.Now()
		for i := 0; i < calls; i++ {
			if err := call(); err != nil {
				t.Fatal(err)
			}
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
