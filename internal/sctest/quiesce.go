package sctest

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// PoisonRecycled turns on the buffer package's poison-on-recycle hook for
// the rest of the process: storage returning to a pool is overwritten with
// 0xDB. Request frames, replies and argument buffers are all reused rather
// than left to the collector, so a skeleton that keeps argument bytes past
// its dispatch (the contract in stubs.Skeleton), or a stub that keeps
// result bytes past its unmarshal, would otherwise fail only when the
// pool happened to hand the array out again. Suites call it first thing
// in TestMain.
func PoisonRecycled() { buffer.PoisonRecycled(true) }

// Baseline is what a suite starts from, for AssertQuiesced.
type Baseline struct {
	goroutines int
	bufs       buffer.Ledger
}

// Snapshot records the baseline; take it in TestMain before m.Run.
func Snapshot() Baseline {
	return Baseline{goroutines: runtime.NumGoroutine(), bufs: buffer.Stats()}
}

// goroutineSlack is what the audit allows over the baseline: runtime
// helpers and stragglers mid-exit (timer and dial reapers inside their
// timeout). A leaked writer, reader or sweeper per test blows well past
// it. The buffer leg has no slack: every path that draws a buffer puts it
// back, killed connections, shed calls and abandoned replies included.
const goroutineSlack = 12

// netd's live export entries and connections, which Server.Close settles,
// read through the gauge registry: netd's suite imports sctest.
var (
	exportsLive = scstats.GaugeFor("netd.exports_live")
	connsLive   = scstats.GaugeFor("netd.conns_live")
)

// AssertQuiesced checks that a finished suite gave back what it took:
// the goroutine count is back at the baseline — every server, executor and
// dispatch engine a test started wound down — the buffers drawn from the
// pool since the baseline were put back (Get == Put), which covers borrowed
// []byte arguments too, since they alias nothing but their request frame,
// and no network door server still holds an export entry or a connection:
// one that does was never closed (ROADMAP spec item (e)). It polls for a
// few seconds, since teardown is asynchronous, and returns an error naming
// the leg that never settled.
func AssertQuiesced(base Baseline) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		led := buffer.Stats().Sub(base.bufs)
		out := led.Gets - led.Puts
		exports, conns := exportsLive.Value(), connsLive.Value()
		if g <= base.goroutines+goroutineSlack && out == 0 && exports == 0 && conns == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if out != 0 {
				return fmt.Errorf("buffer ledger: gets − puts = %d since the baseline (gets %d, puts %d): buffers drawn from the pool and never put back",
					out, led.Gets, led.Puts)
			}
			if exports != 0 || conns != 0 {
				return fmt.Errorf("netd.exports_live = %d, netd.conns_live = %d, want 0: a server the suite started was never closed", exports, conns)
			}
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			return fmt.Errorf("%d goroutines live, want <= baseline %d + %d; stacks:\n%s",
				g, base.goroutines, goroutineSlack, stacks)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// AuditedMain is a suite's TestMain body, os.Exit(sctest.AuditedMain(m)):
// it runs m with recycled storage poisoned, then audits quiescence.
func AuditedMain(m *testing.M) int {
	PoisonRecycled()
	base := Snapshot()
	code := m.Run()
	if code == 0 {
		if err := AssertQuiesced(base); err != nil {
			fmt.Fprintf(os.Stderr, "quiescence audit after the suite: %v\n", err)
			code = 1
		}
	}
	return code
}
