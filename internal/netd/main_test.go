package netd

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the suite with recycled storage poisoned and then audits
// what it left behind: every server a test starts is torn down by its
// cleanup, so the goroutine count must return to (about) the pre-suite
// baseline — a leaked writer/reader/sweeper per test would blow well past
// the slack — and every buffer the call paths drew from the pool must be
// back in it.
func TestMain(m *testing.M) {
	sctest.PoisonRecycled()
	base := sctest.Snapshot()
	code := m.Run()
	if code == 0 {
		if err := sctest.AssertQuiesced(base); err != nil {
			fmt.Fprintf(os.Stderr, "netd: quiescence audit after the suite: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}
