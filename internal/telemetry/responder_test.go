package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sctest"
)

func TestMain(m *testing.M) { os.Exit(sctest.AuditedMain(m)) }

var updateCorpus = flag.Bool("update-corpus", false, "rewrite FuzzRequest's checked-in corpus from requestCases")

// requestCases are request heads with the status readRequest must give
// them (0: served) and, when served, the path it must route by.
var requestCases = []struct {
	name, head string
	status     int
	path       string
}{
	{"get", "GET /metrics HTTP/1.1\r\nHost: x\r\nUser-Agent: Go-http-client/1.1\r\n\r\n", 0, "/metrics"},
	{"bare-lf", "GET /statz?window=0&buckets=1 HTTP/1.1\nHost: x\n\n", 0, "/statz"},
	{"http10", "GET /healthz HTTP/1.0\r\n\r\n", 0, "/healthz"},
	{"escaped-path", "GET /traces/%30%30ab HTTP/1.1\r\n\r\n", 0, "/traces/00ab"},
	{"query-key-no-value", "GET /debug/pprof/heap?debug&gc=1 HTTP/1.1\r\n\r\n", 0, "/debug/pprof/heap"},
	{"bare-newline", "\n", 400, ""},
	{"empty-head", "\r\n\r\n", 400, ""},
	{"cut-short", "GET /metrics HTTP/1.1\r\nHost: x\r\n", 400, ""},
	{"oversized", "GET / HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxHead) + "\r\n\r\n", 400, ""},
	{"post", "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 405, ""},
	{"head", "HEAD /metrics HTTP/1.1\r\n\r\n", 405, ""},
	{"no-target", "GET HTTP/1.1\r\n\r\n", 400, ""},
	{"empty-target", "GET  HTTP/1.1\r\n\r\n", 400, ""},
	{"absolute-target", "GET http://127.0.0.1:6060/metrics HTTP/1.1\r\n\r\n", 400, ""},
	{"bad-path-escape", "GET /traces/%zz HTTP/1.1\r\n\r\n", 400, ""},
	{"bad-query-escape", "GET /statz?window=%Z0 HTTP/1.1\r\n\r\n", 400, ""},
	{"http2-preface", "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", 400, ""},
}

// chunkReader hands its input out a chunk at a time, so a head's end can
// straddle two reads, and counts what it handed out.
type chunkReader struct {
	data  []byte
	taken int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 61)], r.data)
	r.data, r.taken = r.data[n:], r.taken+n
	return n, nil
}

func TestReadRequest(t *testing.T) {
	for _, tc := range requestCases {
		req, status := readRequest(&chunkReader{data: []byte(tc.head)})
		if status != tc.status || status == 0 && req.path != tc.path {
			t.Errorf("%s: status %d path %q, want %d %q", tc.name, status, req.path, tc.status, tc.path)
		}
	}
	req, _ := readRequest(&chunkReader{data: []byte("GET /debug/pprof/heap?debug&gc=1 HTTP/1.1\r\n\r\n")})
	if !req.query.Has("debug") || req.query.Get("gc") != "1" {
		t.Errorf("query = %v, want debug present and gc=1", req.query)
	}
}

// FuzzRequest: readRequest never panics, never takes more than maxHead
// bytes off the connection, and serves only a GET of an origin-form path.
func FuzzRequest(f *testing.F) {
	for _, tc := range requestCases {
		f.Add([]byte(tc.head))
		if *updateCorpus {
			dir := filepath.Join("testdata", "fuzz", "FuzzRequest")
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.head)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				f.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.name), []byte(body), 0o644); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, head []byte) {
		r := &chunkReader{data: head}
		req, status := readRequest(r)
		if r.taken > maxHead {
			t.Fatalf("took %d bytes off the connection, bound %d", r.taken, maxHead)
		}
		switch status {
		case 0:
			if !bytes.HasPrefix(head, []byte("GET /")) || !strings.HasPrefix(req.path, "/") {
				t.Fatalf("served %q as path %q", head, req.path)
			}
		case 405:
			if bytes.HasPrefix(head, []byte("GET ")) {
				t.Fatalf("refused a GET as a bad method: %q", head)
			}
		case 400:
		default:
			t.Fatalf("status %d", status)
		}
	})
}

// TestResponderRoutesAndRefuses: over the wire, a method other than GET
// gets 405 with Allow, an unknown path 404, and the exact route beats the
// prefix route it sits under.
func TestResponderRoutesAndRefuses(t *testing.T) {
	s := startPlane(t)
	resp, err := http.Post("http://"+s.Addr()+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET" {
		t.Errorf("POST: status %d Allow %q, want 405 GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if code, _ := get(t, "http://"+s.Addr()+"/nowhere"); code != 404 {
		t.Errorf("/nowhere: status %d, want 404", code)
	}
	if code, body := get(t, "http://"+s.Addr()+"/traces/slow"); code != 200 || !strings.HasPrefix(body, "[") {
		t.Errorf("/traces/slow: status %d body %q, want the slow listing, not a trace id", code, body)
	}
}

func TestPprofRoutes(t *testing.T) {
	s := startPlane(t)
	base := "http://" + s.Addr() + "/debug/pprof/"
	gzipped := func(path string) {
		t.Helper()
		if code, body := get(t, base+path); code != 200 || !strings.HasPrefix(body, "\x1f\x8b") {
			t.Errorf("%s: status %d, body starts % x, want 200 and gzip (1f 8b)", path, code, body[:min(len(body), 2)])
		}
	}
	gzipped("profile?seconds=1")
	gzipped("heap?gc=1")
	for path, want := range map[string]string{
		"goroutine?debug=1": "goroutine profile: total",
		"cmdline":           os.Args[0],
		"symbol?" + fmt.Sprintf("%#x", reflect.ValueOf(handleSymbol).Pointer()): "telemetry.handleSymbol",
		"trace?seconds=0.05": "go 1.",
	} {
		if code, body := get(t, base+path); code != 200 || !strings.Contains(body, want) {
			t.Errorf("%s: status %d, body lacks %q", path, code, want)
		}
	}
	for path, want := range map[string]int{"heap?seconds=1": 400, "nosuch": 404} {
		if code, _ := get(t, base+path); code != want {
			t.Errorf("%s: status %d, want %d", path, code, want)
		}
	}
}

// TestCloseWithProfileInFlight: Close ends a CPU profile's wait and
// returns at once, leaving nothing running.
func TestCloseWithProfileInFlight(t *testing.T) {
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		if resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/profile?seconds=30"); err == nil {
			resp.Body.Close()
		}
	}()
	// running reports whether any goroutine's stack mentions fn.
	running := func(fn string) bool {
		stacks := make([]byte, 1<<20)
		return bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte(fn))
	}
	for deadline := time.Now().Add(5 * time.Second); !running("recording.func"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the profile request never reached its wait")
		}
	}
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Close took %v with a 30 s profile in flight, want < 100ms", d)
	}
	<-fetched
	for deadline := time.Now().Add(time.Second); running("telemetry.(*Server).serveConn"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the profile's handler still runs a second after Close")
		}
	}
}
