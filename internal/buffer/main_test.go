package buffer_test

import (
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the suite with recycled storage poisoned and audits
// quiescence afterwards (goroutines at the baseline, pool gets == puts).
// It lives in the external test package because sctest imports this one.
func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }
