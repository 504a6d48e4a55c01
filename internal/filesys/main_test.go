package filesys

import (
	"os"
	"testing"

	"repro/internal/sctest"
)

// TestMain runs the file-service suites with recycled storage poisoned:
// the generated skeletons copy byte arguments before they reach the store
// (the contract in stubs.Skeleton), and a store that kept a slice of a
// request frame would now read 0xDB the moment the call returned.
func TestMain(m *testing.M) {
	sctest.PoisonRecycled()
	os.Exit(m.Run())
}
