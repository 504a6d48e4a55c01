package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
	"repro/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func startPlane(t *testing.T) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// twoMachines publishes skel as a singleton object on one in-process netd
// machine and returns a second machine's import of it.
func twoMachines(t *testing.T, skel stubs.Skeleton) *core.Object {
	t.Helper()
	kA := kernel.New("mA")
	netA, err := netd.Start(kA.NewDomain("mA-netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netA.Close() })
	kB := kernel.New("mB")
	netB, err := netd.Start(kB.NewDomain("mB-netd"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { netB.Close() })

	envA, err := sctest.NewEnv(kA, "mA-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := singleton.Export(envA, sctest.CounterMT, skel, nil)
	netA.PublishRoot("ctr", obj)

	envB, err := sctest.NewEnv(kB, "mB-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := netB.ImportRootObject(envB, netA.Addr(), "ctr", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	return remote
}

// twoMachineCall makes one explicitly traced call from one in-process
// netd machine to a counter on another and returns its trace ID.
func twoMachineCall(t *testing.T) uint64 {
	t.Helper()
	remote := twoMachines(t, (&sctest.Counter{}).Skeleton())
	traceID := trace.NewTraceID()
	if _, err := sctest.Add(remote, 3, core.WithTrace(traceID)); err != nil {
		t.Fatal(err)
	}
	return traceID
}

// TestTwoMachineTraceVisible is the PR's acceptance case: one traced call
// between two in-process netd machines produces a single trace with at
// least 4 spans covering both sides, served by /traces/{id}.
func TestTwoMachineTraceVisible(t *testing.T) {
	trace.Reset()
	t.Cleanup(trace.Reset)
	s := startPlane(t)
	traceID := twoMachineCall(t)

	code, body := get(t, fmt.Sprintf("http://%s/traces/%016x", s.Addr(), traceID))
	if code != http.StatusOK {
		t.Fatalf("/traces/{id}: status %d, body %s", code, body)
	}
	var roots []struct {
		Trace    string `json:"trace"`
		Name     string `json:"name"`
		Children []json.RawMessage
	}
	if err := json.Unmarshal([]byte(body), &roots); err != nil {
		t.Fatalf("/traces/{id} not JSON: %v\n%s", err, body)
	}

	// Count spans and names via the flat Collect, asserting both sides of
	// the wire were captured in one tree.
	spans := trace.Collect(traceID)
	if len(spans) < 4 {
		t.Fatalf("trace has %d spans, want ≥4: %+v", len(spans), spans)
	}
	names := map[string]bool{}
	for _, sd := range spans {
		names[sd.Name] = true
	}
	for _, want := range []string{"singleton.invoke", "netd.send", "netd.serve", "skeleton", "netd.reply"} {
		if !names[want] {
			t.Errorf("trace missing span %q; have %v", want, names)
		}
	}

	// The tree must nest the server-side serve span under the client-side
	// send span (the wire carried the span identity across machines).
	parentOf := map[string]string{}
	var rec func(parent string, raw json.RawMessage)
	rec = func(parent string, raw json.RawMessage) {
		var n struct {
			Name     string            `json:"name"`
			Children []json.RawMessage `json:"children"`
		}
		if err := json.Unmarshal(raw, &n); err != nil {
			t.Fatal(err)
		}
		parentOf[n.Name] = parent
		for _, c := range n.Children {
			rec(n.Name, c)
		}
	}
	var rawRoots []json.RawMessage
	if err := json.Unmarshal([]byte(body), &rawRoots); err != nil {
		t.Fatal(err)
	}
	for _, r := range rawRoots {
		rec("", r)
	}
	if parentOf["netd.serve"] != "netd.send" {
		t.Errorf("netd.serve's parent = %q, want netd.send (parents: %v)", parentOf["netd.serve"], parentOf)
	}
	if parentOf["skeleton"] != "netd.serve" {
		t.Errorf("skeleton's parent = %q, want netd.serve", parentOf["skeleton"])
	}

	// The text waterfall renders too.
	code, text := get(t, fmt.Sprintf("http://%s/traces/%016x?format=text", s.Addr(), traceID))
	if code != http.StatusOK || !strings.Contains(text, "netd.serve") {
		t.Errorf("text waterfall: status %d\n%s", code, text)
	}

	// And /traces lists the root.
	code, listing := get(t, fmt.Sprintf("http://%s/traces", s.Addr()))
	if code != http.StatusOK || !strings.Contains(listing, fmt.Sprintf("%016x", traceID)) {
		t.Errorf("/traces missing trace %016x: status %d\n%s", traceID, code, listing)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	trace.Reset()
	t.Cleanup(trace.Reset)
	s := startPlane(t)
	twoMachineCall(t) // generate netd + singleton traffic and gauges

	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	// Every counter family is present.
	for _, fam := range counterFamilies {
		if !strings.Contains(body, "# TYPE "+fam.name+" counter") {
			t.Errorf("/metrics missing family %s", fam.name)
		}
	}
	// Labelled counters for the subcontracts the call exercised.
	for _, want := range []string{
		`subcontract_calls_total{subcontract="netd"}`,
		`subcontract_calls_total{subcontract="netd(serve)"}`,
		`subcontract_calls_total{subcontract="singleton"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing series %s", want)
		}
	}
	// Histogram exposition with sum/count and +Inf bound.
	for _, want := range []string{
		"# TYPE subcontract_latency_seconds histogram",
		`subcontract_latency_seconds_bucket{subcontract="netd",le="+Inf"}`,
		`subcontract_latency_seconds_sum{subcontract="netd"}`,
		`subcontract_latency_seconds_count{subcontract="netd"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// Level gauges appear under sanitized names, even when zero.
	for _, want := range []string{"netd_conns_live", "netd_sessions_live", "netd_serve_inflight"} {
		if !strings.Contains(body, "# TYPE "+want+" gauge") {
			t.Errorf("/metrics missing gauge %s", want)
		}
	}
	// Monotonic event counts get counter conventions (_total suffix).
	for _, want := range []string{"netd_breaker_opened_total", "netd_leases_expired_total",
		"buffer_gets_total", "buffer_misses_total", "buffer_puts_total", "buffer_drops_total",
		"buffer_large_allocs_total", "buffer_released_total"} {
		if !strings.Contains(body, "# TYPE "+want+" counter") {
			t.Errorf("/metrics missing counter-convention gauge %s", want)
		}
	}
	// Every interned counter block is exposed (AllSnapshots contract).
	for _, sn := range scstats.AllSnapshots() {
		if !strings.Contains(body, fmt.Sprintf("subcontract_calls_total{subcontract=%q}", sn.Name)) {
			t.Errorf("/metrics missing interned subcontract %q", sn.Name)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	s := startPlane(t)
	twoMachineCall(t)

	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d, body %s", code, body)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if h["status"] != "ok" {
		t.Errorf("/healthz status = %v, want ok (%s)", h["status"], body)
	}
	for _, key := range []string{"conns_live", "sessions_live", "exports_live", "breakers_open", "leases_expired"} {
		if _, present := h[key]; !present {
			t.Errorf("/healthz missing %q: %s", key, body)
		}
	}
}

func TestPprofEndpoint(t *testing.T) {
	s := startPlane(t)
	code, body := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d", code)
	}
	code, _ = get(t, "http://"+s.Addr()+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/goroutine: status %d", code)
	}
}

func TestTraceNotFound(t *testing.T) {
	s := startPlane(t)
	if code, _ := get(t, "http://"+s.Addr()+"/traces/00000000deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
	if code, _ := get(t, "http://"+s.Addr()+"/traces/nothex"); code != http.StatusBadRequest {
		t.Errorf("bad trace id: status %d, want 400", code)
	}
}
