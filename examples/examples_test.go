// Package examples_test runs the example programs: each must exit 0 and
// print the line it exists to show.
package examples_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExamplesRun(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go on PATH")
	}
	want := map[string]string{
		"bank":        "after commit:     alice=70 bob=50",
		"cachingfs":   `read 2: "quarterly numbers"   B-cache: 1 hits / 1 misses`,
		"discovery":   `received object via dynamically discovered subcontract "replicon"`,
		"quickstart":  "cross-domain call:  Hello, remote caller!",
		"reconnect":   `during restart window: read "balance: 42"`,
		"replicated":  `read still works ("entry one\n"); 1 replicas remain`,
		"videostream": "frames lost on the wire (detected by sequence gaps): 2",
	}
	dir := t.TempDir()
	build := exec.Command(gobin, "build", "-o", dir+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, line := range want {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(dir, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), line) {
				t.Fatalf("%s printed no line %q:\n%s", name, line, out)
			}
		})
	}
}
