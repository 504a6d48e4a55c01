package netd

import (
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the suite with recycled storage poisoned and then audits
// what it left behind: every server a test starts is torn down by its
// cleanup, so the goroutine count must return to (about) the pre-suite
// baseline — a leaked writer/reader/sweeper per test would blow well past
// the slack — every buffer the call paths drew from the pool must be back
// in it, and no server may be left holding an export entry or a connection.
func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }
