package integration

import (
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the cross-machine suites with recycled storage poisoned —
// a skeleton or stub that keeps bytes of a buffer it gave up reads 0xDB —
// and then audits quiescence: goroutines back at the baseline, every
// pooled buffer put back, no bulk-region grant left mapped.
func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }
