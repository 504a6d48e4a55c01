package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNoHTTPStack keeps net/http and package net out of the daemon and the
// shell. net/http and what it pulls in (crypto/tls, x509, bundled HTTP/2)
// were about half of springfsd's resident binary (EXPERIMENTS E30); net's
// cgo resolver made the build the benchmark runs link libc and the dynamic
// loader, another 1.3 MiB of every server (E31). internal/sock is the
// socket layer instead, so no package in either graph may have cgo files.
// encoding/json, with the base64 and UTF-16 packages it links, was another
// quarter megabyte (E37): the telemetry plane has its own encoder and
// netd's state file is lines read with strconv.
func TestNoHTTPStack(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go on PATH")
	}
	// The host default, as benchmark/run.sh builds: with cgo off, net's cgo
	// files would not be listed whether or not net is linked.
	list := func(args ...string) []string {
		cmd := exec.Command(gobin, append([]string{"list", "-deps"}, append(args, ".", "../fsh")...)...)
		cmd.Env = append(os.Environ(), "CGO_ENABLED=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	for _, pkg := range list() {
		// net/http bundles HTTP/2 and vendors its hpack codec below this path;
		// net vendors its DNS message codec.
		if pkg == "net/http" || pkg == "crypto/tls" || pkg == "net" || pkg == "runtime/cgo" ||
			pkg == "encoding/json" || pkg == "encoding/base64" || pkg == "unicode/utf16" ||
			strings.HasPrefix(pkg, "vendor/golang.org/x/net/http2") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/dns") {
			t.Errorf("%s is back in the dependency graph of springfsd or fsh", pkg)
		}
	}
	for _, pkg := range list("-f", "{{if .CgoFiles}}{{.ImportPath}}{{end}}") {
		t.Errorf("%s has cgo files and is in the dependency graph of springfsd or fsh", pkg)
	}
}
