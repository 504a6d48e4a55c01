package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoHTTPStack keeps net/http out of the daemon and the shell: it and
// what it pulls in (crypto/tls, x509, bundled HTTP/2) were about half of
// springfsd's resident binary, and the telemetry plane needs none of it
// (EXPERIMENTS E30).
func TestNoHTTPStack(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", ".", "../fsh").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		// net/http bundles HTTP/2 and vendors its hpack codec below this path.
		if pkg == "net/http" || pkg == "crypto/tls" || strings.HasPrefix(pkg, "vendor/golang.org/x/net/http2") {
			t.Errorf("%s is back in the dependency graph of springfsd or fsh", pkg)
		}
	}
}
