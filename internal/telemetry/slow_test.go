package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/trace"
)

// TestMetricsExemplars: a traced call leaves its trace ID on the latency
// bucket it landed in, and /metrics emits it as an exemplar suffix.
func TestMetricsExemplars(t *testing.T) {
	trace.Reset()
	t.Cleanup(trace.Reset)
	s := startPlane(t)
	traceID := twoMachineCall(t)

	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(body, `# {trace_id="`) {
		t.Fatal("/metrics has no bucket exemplars after a traced call")
	}
	if !strings.Contains(body, fmt.Sprintf(`trace_id="%016x"`, traceID)) {
		t.Errorf("/metrics exemplars never mention the traced call %016x", traceID)
	}
	// The stale v1 HELP text is gone: recording is always-on now.
	if strings.Contains(body, "1 in 8") {
		t.Error("/metrics still advertises the old 1-in-8 sampled recording")
	}
}

// TestSlowTraceTailConformance: with every call head-sampled
// (-trace-sample 1), a call that exceeds the slow threshold is listed at
// /traces/slow with its span tree — the server side's netd.serve and
// skeleton spans included — and a root is listed only if it ran at least
// the threshold: the fast call is not, unless a loaded host made it slow.
func TestSlowTraceTailConformance(t *testing.T) {
	const threshold = 5 * time.Millisecond
	trace.Reset()
	t.Cleanup(trace.Reset)
	t.Cleanup(func() { trace.SetSampling(0) })
	trace.SetSlowDefault(threshold)
	t.Cleanup(func() { trace.SetSlowDefault(0) })
	s := startPlane(t)

	// The exported skeleton sleeps past the threshold on get, returns
	// instantly on add.
	remote := twoMachines(t, stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		if op == sctest.OpGet {
			time.Sleep(25 * time.Millisecond)
		} else if _, err := args.ReadInt64(); err != nil {
			return err
		}
		results.WriteInt64(0)
		return nil
	}))

	// Trace from here on, so the set-up's own calls stay out of the
	// listing. A fast call: traced, under the threshold, not copied.
	trace.SetSampling(1)
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}
	// The slow call the slow ring must keep.
	if _, err := sctest.Get(remote); err != nil {
		t.Fatal(err)
	}
	// The main ring has both roots, newest first: the get, then the add.
	roots := trace.Roots(0)
	if len(roots) != 2 {
		t.Fatalf("main ring holds %d roots, want the add and the get: %+v", len(roots), roots)
	}
	slowGet, fastAdd := roots[0], roots[1]

	// /traces/slow lists the slow root.
	code, body := get(t, "http://"+s.Addr()+"/traces/slow")
	if code != http.StatusOK {
		t.Fatalf("/traces/slow: status %d", code)
	}
	var listing []struct {
		Trace    string `json:"trace"`
		Name     string `json:"name"`
		Duration string `json:"duration"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("/traces/slow not JSON: %v\n%s", err, body)
	}
	// The add is listed exactly when the main ring says it ran slow.
	want := 1
	if time.Duration(fastAdd.Duration) >= threshold {
		want = 2
	}
	if len(listing) != want {
		t.Errorf("/traces/slow lists %d roots, want %d (the slow get, and the add if it ran %v): %s",
			len(listing), want, time.Duration(fastAdd.Duration), body)
	}
	var slowTrace string
	for _, root := range listing {
		d, err := time.ParseDuration(root.Duration)
		if err != nil {
			t.Fatalf("unparseable duration %q", root.Duration)
		}
		if d < threshold {
			t.Errorf("/traces/slow lists a fast root: %+v", root)
		}
		if id := mustHex(t, root.Trace); id != slowGet.TraceID && id != fastAdd.TraceID {
			t.Errorf("/traces/slow lists a root of neither call: %+v", root)
		}
		if root.Name == "singleton.invoke" && mustHex(t, root.Trace) == slowGet.TraceID {
			slowTrace = root.Trace
		}
	}
	if slowTrace == "" {
		t.Fatalf("/traces/slow has no singleton.invoke root of the slow get %016x: %s", slowGet.TraceID, body)
	}

	// The full span tree resolves at /traces/{id}, with the client-side
	// wire span nested under the invoke root.
	code, body = get(t, "http://"+s.Addr()+"/traces/"+slowTrace)
	if code != http.StatusOK {
		t.Fatalf("/traces/%s: status %d, body %s", slowTrace, code, body)
	}
	var tree []struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal([]byte(body), &tree); err != nil {
		t.Fatalf("slow trace not JSON: %v\n%s", err, body)
	}
	if len(tree) != 1 || tree[0].Name != "singleton.invoke" {
		t.Fatalf("slow tree = %+v, want one singleton.invoke root", tree)
	}
	var haveSend bool
	for _, c := range tree[0].Children {
		if c.Name == "netd.send" {
			haveSend = true
		}
	}
	if !haveSend {
		t.Errorf("slow tree lacks the netd.send child: %s", body)
	}

	// The trace crossed the wire, and both machines record into this
	// process's rings: the server-side spans are in the slow copy.
	var haveServe, haveSkeleton bool
	for _, sd := range trace.SlowCollect(mustHex(t, slowTrace)) {
		haveServe = haveServe || sd.Name == "netd.serve"
		haveSkeleton = haveSkeleton || sd.Name == "skeleton"
	}
	if !haveServe || !haveSkeleton {
		t.Errorf("slow trace lacks server-side spans (netd.serve %v, skeleton %v): %s", haveServe, haveSkeleton, body)
	}
}

// TestUntracedCallStaysUntraced: with head sampling off and a slow
// threshold every call meets, a root call carries no trace, and once a
// call over the wire completes neither ring holds a span.
func TestUntracedCallStaysUntraced(t *testing.T) {
	trace.Reset()
	t.Cleanup(trace.Reset)
	trace.SetSampling(0)
	trace.SetSlowDefault(time.Nanosecond)
	t.Cleanup(func() { trace.SetSlowDefault(0) })
	remote := twoMachines(t, (&sctest.Counter{}).Skeleton())

	if id := core.NewCall(sctest.OpGet).Info().Trace; id != 0 {
		t.Fatalf("root NewCall carries trace %016x with sampling off", id)
	}
	if _, err := sctest.Add(remote, 1); err != nil {
		t.Fatal(err)
	}
	if roots := trace.Roots(0); len(roots) != 0 {
		t.Errorf("main ring holds %d roots: %+v", len(roots), roots)
	}
	if roots := trace.SlowRoots(0); len(roots) != 0 {
		t.Errorf("slow ring holds %d roots: %+v", len(roots), roots)
	}
}

func mustHex(t *testing.T, s string) uint64 {
	t.Helper()
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		t.Fatal(err)
	}
	return v
}
