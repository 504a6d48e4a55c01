package reconnectable

import (
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the suite with recycled storage poisoned and audits
// quiescence afterwards (goroutines at the baseline, pool gets == puts):
// every retry adopts or deletes a door and re-sends its argument buffer.
func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }
