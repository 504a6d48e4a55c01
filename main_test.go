package repro_test

import (
	"os"
	"testing"

	"repro/internal/sctest"
)

func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }
