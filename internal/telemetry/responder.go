package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/sock"
)

// The plane's HTTP/1.1 responder: GET only, one request per connection,
// its head read under maxHead and ioTimeout, the body rendered into memory
// and sent with Content-Length and Connection: close. No TLS, keep-alive,
// gzip or request bodies: net/http and what it links were half of every
// server's resident binary (DESIGN §8, EXPERIMENTS E30).

const (
	maxHead   = 8 << 10
	ioTimeout = 10 * time.Second
)

// A request is what a handler reads: the unescaped path and the query.
type request struct {
	path, rawQuery string
	query          url.Values
	done           <-chan struct{} // closed by Server.Close
}

// A response is what a handler renders: the body, its status and type.
type response struct {
	bytes.Buffer
	status int
	ctype  string
}

type handler func(w *response, r *request)

// error replaces whatever was rendered with a plain-text error.
func (w *response) error(status int, msg string) {
	w.Reset()
	w.status, w.ctype = status, "text/plain; charset=utf-8"
	w.WriteString(msg + "\n")
}

var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found",
	405: "Method Not Allowed", 500: "Internal Server Error", 503: "Service Unavailable"}

// readRequest reads one request head from r, up to the blank line that
// ends it and never more than maxHead bytes, and parses its request line
// (header fields are ignored). It returns the request, or the status to
// refuse it with: 405 for a method other than GET, 400 for a head cut
// short or too long, a request line that is not three fields ending in
// HTTP/1.x, a target that is not an origin-form path, a bad %-escape.
func readRequest(r io.Reader) (request, int) {
	var buf [maxHead]byte
	n := 0
	for !bytes.Contains(buf[:n], []byte("\n\n")) && !bytes.Contains(buf[:n], []byte("\n\r\n")) {
		m, err := r.Read(buf[n:])
		if n += m; n == len(buf) || err != nil && m == 0 {
			return request{}, 400
		}
	}
	line, _, _ := bytes.Cut(buf[:n], []byte("\n"))
	f := strings.Split(strings.TrimSuffix(string(line), "\r"), " ")
	switch {
	case len(f) != 3 || !strings.HasPrefix(f[2], "HTTP/1."):
		return request{}, 400
	case f[0] != "GET":
		return request{}, 405
	}
	path, rawQuery, _ := strings.Cut(f[1], "?")
	p, perr := url.PathUnescape(path)
	q, qerr := url.ParseQuery(rawQuery)
	if !strings.HasPrefix(path, "/") || perr != nil || qerr != nil {
		return request{}, 400
	}
	return request{path: p, rawQuery: rawQuery, query: q}, 0
}

func (s *Server) serve() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // closed
		}
		s.mu.Lock()
		if s.conns == nil {
			c.Close()
		} else {
			s.conns[c] = true
			go s.serveConn(c)
		}
		s.mu.Unlock()
	}
}

func (s *Server) serveConn(c sock.Stream) {
	w := &response{status: 200, ctype: "text/plain; charset=utf-8"}
	c.SetDeadline(time.Now().Add(ioTimeout))
	if r, status := readRequest(c); status != 0 {
		w.error(status, statusText[status])
	} else if h := s.route(r.path); h == nil {
		w.error(404, "404 page not found")
	} else {
		r.done = s.done
		h(w, &r)
	}
	head := fmt.Appendf(nil, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nAllow: GET\r\nConnection: close\r\n\r\n",
		w.status, statusText[w.status], w.ctype, w.Len())
	c.SetDeadline(time.Now().Add(ioTimeout))
	_, _ = sock.Writev(c, &[][]byte{head, w.Bytes()}) // a failed write is the client's loss
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// route finds path's own handler, else that of the longest route ending
// in "/" that path extends, else nil.
func (s *Server) route(path string) handler {
	for p := path; p != ""; p = p[:strings.LastIndex(p[:len(p)-1], "/")+1] {
		if h := s.routes[p]; h != nil {
			return h
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// /debug/pprof, from runtime/pprof and runtime/trace: what net/http/pprof
// serves to GET, less delta profiles (?seconds= on a named profile).

// handlePprof serves the index at /debug/pprof/ and the named profiles
// below it: ?debug=N for the text forms, heap?gc=1 to collect first.
func handlePprof(w *response, r *request) {
	name := strings.TrimPrefix(r.path, "/debug/pprof/")
	p := pprof.Lookup(name)
	debug, _ := strconv.Atoi(r.query.Get("debug"))
	switch {
	case name == "":
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%6d %s\n", p.Count(), p.Name())
		}
		w.WriteString("       cmdline profile symbol trace\n")
	case p == nil:
		w.error(404, "unknown profile")
	case r.query.Get("seconds") != "":
		w.error(400, "delta profiles (?seconds=) are not served")
	default:
		if gc, _ := strconv.Atoi(r.query.Get("gc")); gc > 0 && name == "heap" {
			runtime.GC()
		}
		if debug == 0 {
			w.ctype = "application/octet-stream"
		}
		_ = p.WriteTo(w, debug) // writes to memory
	}
}

// wait returns after d, or once the server closes.
func (r *request) wait(d time.Duration) {
	select {
	case <-time.After(d):
	case <-r.done:
	}
}

// recording serves what start writes from now until ?seconds= (default
// def) have passed or the server closes: a CPU profile or an execution
// trace.
func recording(start func(io.Writer) error, stop func(), def float64) handler {
	return func(w *response, r *request) {
		sec, err := strconv.ParseFloat(r.query.Get("seconds"), 64)
		if sec <= 0 || err != nil {
			sec = def
		}
		if err := start(w); err != nil {
			w.error(500, err.Error())
			return
		}
		r.wait(time.Duration(sec * float64(time.Second)))
		stop()
		w.ctype = "application/octet-stream"
	}
}

// handleSymbol maps the program counters of a GET query, 0xPC+0xPC+…,
// to function names.
func handleSymbol(w *response, r *request) {
	w.WriteString("num_symbols: 1\n")
	for _, word := range strings.Split(r.rawQuery, "+") {
		pc, _ := strconv.ParseUint(word, 0, 64)
		if f := runtime.FuncForPC(uintptr(pc)); pc != 0 && f != nil {
			fmt.Fprintf(w, "%#x %s\n", pc, f.Name())
		}
	}
}
