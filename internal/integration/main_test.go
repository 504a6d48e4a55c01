package integration

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the cross-machine suites with recycled storage poisoned —
// a skeleton or stub that keeps bytes of a buffer it gave up reads 0xDB —
// and then audits quiescence: goroutines back at the baseline, every
// pooled buffer put back.
func TestMain(m *testing.M) {
	sctest.PoisonRecycled()
	base := sctest.Snapshot()
	code := m.Run()
	if code == 0 {
		if err := sctest.AssertQuiesced(base); err != nil {
			fmt.Fprintf(os.Stderr, "integration: quiescence audit after the suite: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}
