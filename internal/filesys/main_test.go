package filesys

import (
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the file-service suites with recycled storage poisoned:
// the generated skeletons lend byte arguments to the store for the length
// of the call (the contract in stubs.Skeleton and on FileServer), and a
// store that kept a slice of a request would read 0xDB the moment the call
// returned. Afterwards it audits quiescence: every WAL committer stopped,
// every pooled buffer put back.
func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }
