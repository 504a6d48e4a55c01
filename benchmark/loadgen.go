package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// callDeadline is the latency past which a call counts as failed: a
// reply that late is of no use to whoever asked.
const callDeadline = time.Second

// A slice is one second of a timed window. Medians over slices are what
// make a ten-second run robust to a single host hiccup.
type slice struct {
	lat   hist // latency of the calls that count toward latency figures
	calls atomic.Uint64
	bytes atomic.Uint64
}

// A window is the record of one timed run: per-slice tallies for calls
// that completed inside [start, start+len(slices) s), and whole-run
// tallies from the moment load started (the ramp included), because a
// failure during the ramp is still a failure.
type window struct {
	loadStart time.Time // when callers start; the ramp runs from here to start
	start     time.Time
	slices    []slice

	attempted atomic.Uint64
	failed    atomic.Uint64
	firstErr  atomic.Pointer[error]

	// service is send→done of every call in the window, whatever its
	// class: the figure the budget rows decompose. In a closed loop it
	// equals the latency; in an open loop latency also holds the wait
	// from due time to send.
	service hist

	// Open loop only.
	lag         hist // how late an idle worker fired an arrival
	inflight    atomic.Int64
	inflightMax atomic.Int64
	dropped     atomic.Uint64 // arrivals abandoned because the queue behind the in-flight cap was full
}

// newWindow lays out a window of seconds one-second slices that opens
// ramp after load starts: load runs that long first so that inline
// promotion, buffer pools, the cache and the arrival process are in
// steady state when counting starts.
func newWindow(loadStart time.Time, ramp time.Duration, seconds int) *window {
	return &window{loadStart: loadStart, start: loadStart.Add(ramp), slices: make([]slice, seconds)}
}

func (w *window) end() time.Time { return w.start.Add(time.Duration(len(w.slices)) * time.Second) }

func (w *window) fail(err error) {
	w.failed.Add(1)
	w.firstErr.CompareAndSwap(nil, &err)
}

// record files one completed call. latency is what the caller observed
// (from due time in an open loop), service is send→done.
func (w *window) record(o op, done time.Time, latency, service time.Duration, payload int, err error) {
	w.attempted.Add(1)
	if err != nil {
		w.fail(err)
		return
	}
	if latency > callDeadline {
		w.fail(fmt.Errorf("call took %v, past the %v deadline", latency, callDeadline))
		return
	}
	since := done.Sub(w.start)
	if since < 0 {
		return // ramp
	}
	i := int(since / time.Second)
	if i >= len(w.slices) {
		return
	}
	s := &w.slices[i]
	s.calls.Add(1)
	s.bytes.Add(uint64(payload))
	if !o.bulk {
		s.lat.record(int64(latency))
	}
	w.service.record(int64(service))
}

// spanCall is the root span the traced run wraps around each call, from
// the benchmark's own files: everything the program's spans do not cover
// (stub marshalling, the load generator itself) is its self time.
var spanCall = trace.Name("loadgen.call")

// A tracer makes every call of the traced run the root of its own trace
// and remembers which traces finished last, for the collector to fetch.
type tracer struct {
	mu     sync.Mutex
	recent []uint64 // ring of finished trace IDs
	next   int
}

func newTracer(keep int) *tracer { return &tracer{recent: make([]uint64, keep)} }

func (t *tracer) finished(id uint64) {
	t.mu.Lock()
	t.recent[t.next] = id
	t.next = (t.next + 1) % len(t.recent)
	t.mu.Unlock()
}

// take returns the remembered trace IDs, newest first, and forgets them.
func (t *tracer) take() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []uint64
	for i := 1; i <= len(t.recent); i++ {
		j := (t.next - i + len(t.recent)) % len(t.recent)
		if t.recent[j] != 0 {
			ids = append(ids, t.recent[j])
			t.recent[j] = 0
		}
	}
	return ids
}

// traced runs c.do(o) under a fresh loadgen.call root span.
func (t *tracer) traced(c *caller, o op) (int, error) {
	info := kernel.Info{Trace: trace.NewTraceID()}
	sp := trace.Begin(&info, spanCall)
	c.opts = []core.CallOption{core.WithTraceContext(&info)}
	payload, err := c.do(o)
	c.opts = nil
	sp.End(&info, err)
	t.finished(info.Trace)
	return payload, err
}

// A loadgen drives one workload's callers against a window.
type loadgen struct {
	w       *workload
	callers []*caller
	win     *window
	tr      *tracer // nil in the untraced run
	stop    atomic.Bool
	ticker  *child // the arrival clock of an open-loop workload
}

func (g *loadgen) call(c *caller, o op) (int, error) {
	if g.tr != nil {
		return g.tr.traced(c, o)
	}
	return c.do(o)
}

// run starts the load, lets it ramp until the window opens, and returns
// when the window has closed and every caller has stopped.
func (g *loadgen) run(seed uint64) {
	var wg sync.WaitGroup
	if g.w.openRate > 0 {
		g.runOpen(seed, &wg)
	} else {
		for _, c := range g.callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.closedCaller(c)
			}()
		}
	}
	time.Sleep(time.Until(g.win.end()))
	g.stop.Store(true)
	if g.ticker != nil {
		g.ticker.stop()
	}
	wg.Wait()
}

func (g *loadgen) closedCaller(c *caller) {
	for !g.stop.Load() {
		o := c.next()
		t0 := time.Now()
		payload, err := g.call(c, o)
		t1 := time.Now()
		d := t1.Sub(t0)
		g.win.record(o, t1, d, d, payload, err)
	}
}

// A schedule is the Poisson arrival process of an open-loop workload:
// exponential gaps at the workload's rate, from one seeded stream.
type schedule struct {
	rng  *rand.Rand
	rate float64       // arrivals per second
	at   time.Duration // offset of the last arrival generated
}

func newSchedule(seed uint64, workload string, rate float64) *schedule {
	return &schedule{rng: rand.New(rand.NewPCG(seed, streamID(workload, "arrivals", 0))), rate: rate}
}

// next returns the offset from the start of load at which the next call
// is due.
func (s *schedule) next() time.Duration {
	s.at += time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second))
	return s.at
}

// An arrival is one call of an open-loop workload: what to do and when it
// was due. sent is when the dispatcher handed it over.
type arrival struct {
	o         op
	due, sent time.Time
}

// runOpen issues arrivals when they are due, whether or not the system
// has kept up. One dispatcher owns the schedule and the op stream (the
// last caller generates, the others execute), so the same seed gives the
// same sequence of (due time, op) whatever the workers' timing. A call is
// timed from its due time, which counts the wait a stall imposes on later
// arrivals. Each worker has one call in flight at a time, so the worker
// count is the in-flight cap; arrivals that find every worker busy wait
// their turn in a queue one deadline long, and one that finds even the
// queue full is dropped and counted as failed.
//
// The clock is a child process — the ticker, this binary re-executed —
// that replays the same seeded schedule and writes one byte down a pipe
// per arrival; the dispatcher is an ordinary goroutine reading the pipe.
// An arrival therefore reaches the load generator the way a reply does,
// as a descriptor turning readable, and is late by one kernel wake-up and
// one pipe hop (loadgen.sched_lag_p99_us). Neither way of keeping time
// inside this process does as well: an idle Go runtime parks in
// epoll_wait, whose timeout has millisecond resolution, so time.Sleep
// fires up to a millisecond late; and a thread of this process sleeping in
// nanosleep holds one of the runtime's GOMAXPROCS slots while it sleeps,
// so the worker it has just woken waits for the runtime's monitor thread
// to take the slot back — which, measured, put 40–110 µs of generator into
// every call and tripled the run-to-run spread of p50_us.
func (g *loadgen) runOpen(seed uint64, wg *sync.WaitGroup) {
	workers, gen := g.callers[:len(g.callers)-1], g.callers[len(g.callers)-1]
	// One deadline's worth of arrivals: one that would wait longer than
	// that for a worker has failed whether or not it is ever sent.
	arrivals := make(chan arrival, int(g.w.openRate*callDeadline.Seconds()))
	for _, c := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range arrivals {
				n := g.win.inflight.Add(1)
				for m := g.win.inflightMax.Load(); n > m && !g.win.inflightMax.CompareAndSwap(m, n); m = g.win.inflightMax.Load() {
				}
				payload, err := g.call(c, a.o)
				done := time.Now()
				g.win.inflight.Add(-1)
				g.win.record(a.o, done, done.Sub(a.due), done.Sub(a.sent), payload, err)
			}
		}()
	}
	ticks, tk, err := startTicker(seed, g.w.name, g.w.openRate, g.win.loadStart)
	if err != nil {
		close(arrivals)
		g.win.attempted.Add(1)
		g.win.fail(err)
		return
	}
	g.ticker = tk
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(arrivals)
		defer ticks.Close()
		sched := newSchedule(seed, g.w.name, g.w.openRate)
		buf := make([]byte, tickBatch)
		for {
			n, err := ticks.Read(buf)
			if err != nil {
				return // the ticker was stopped: the window is over
			}
			now := time.Now()
			for i := 0; i < n; i++ {
				due := g.win.loadStart.Add(sched.next())
				if !now.Before(g.win.start) {
					g.win.lag.record(int64(now.Sub(due)))
				}
				select {
				case arrivals <- arrival{o: gen.next(), due: due, sent: now}:
				default:
					g.win.attempted.Add(1)
					g.win.dropped.Add(1)
					g.win.fail(fmt.Errorf("open-loop arrival dropped: all %d workers busy and %d arrivals already waiting", len(workers), cap(arrivals)))
				}
			}
		}
	}()
}

// tickBatch is the most arrivals one write of the ticker announces.
const tickBatch = 4096

// startTicker forks the benchmark as the arrival clock of an open-loop
// workload and returns the pipe its ticks arrive on.
func startTicker(seed uint64, workload string, rate float64, start time.Time) (*os.File, *child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()
	spec := fmt.Sprintf("%d %s %g %d", seed, workload, rate, start.UnixNano())
	c, err := startChild("ticker", self, []*os.File{w}, "-ticker", spec)
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	return r, c, nil
}

// runTicker is the child: it replays the seeded schedule against the wall
// clock and writes one byte to descriptor 3 per arrival, as many bytes in
// one write as arrivals are due. It ends when the pipe closes or it is
// killed.
func runTicker(spec string) error {
	var seed uint64
	var workload string
	var rate float64
	var startNano int64
	if _, err := fmt.Sscanf(spec, "%d %s %g %d", &seed, &workload, &rate, &startNano); err != nil {
		return fmt.Errorf("-ticker %q: %w", spec, err)
	}
	out := os.NewFile(3, "ticks")
	runtime.LockOSThread()
	setTimerSlack()
	start := time.Unix(0, startNano)
	sched := newSchedule(seed, workload, rate)
	buf := make([]byte, tickBatch)
	next := start.Add(sched.next())
	for {
		sleepUntil(next)
		now := time.Now()
		n := 0
		for !next.After(now) && n < len(buf) {
			n++
			next = start.Add(sched.next())
		}
		if _, err := out.Write(buf[:n]); err != nil {
			return nil
		}
	}
}

// tickerLead is how far ahead of its fork an open-loop workload's load
// starts, so the ticker is running before its first arrival is due.
const tickerLead = 100 * time.Millisecond
