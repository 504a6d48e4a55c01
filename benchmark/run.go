package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// A bench is one invocation's environment: the shipped daemon to fork and
// a scratch directory that holds every socket, WAL directory and
// temporary file of the run and is removed when the run ends.
type bench struct {
	springfsd string
	dir       string
	peer      *floorPeer
	instances int
	t         timing
	log       func(format string, args ...any)
	// invalidity collects the validity guards a run tripped that do not
	// fail a call: the report mode prints them and exits non-zero.
	invalidity []string
}

// invalid logs a tripped validity guard and remembers it.
func (b *bench) invalid(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.log("INVALID: %s", msg)
	b.invalidity = append(b.invalidity, msg)
}

func newBench(springfsd, workdir string, log func(string, ...any)) (*bench, error) {
	if _, err := os.Stat(springfsd); err != nil {
		return nil, fmt.Errorf("-springfsd must name the built cmd/springfsd (benchmark/run.sh builds it and passes it): %w", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	// The directory name stays short and is used relative to the working
	// directory, because a unix socket path is limited to 108 bytes.
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil && len(rel) < len(dir) {
			dir = rel
		}
	}
	b := &bench{springfsd: springfsd, dir: dir, t: fullTiming, log: log}
	if b.peer, err = startFloorPeer(dir); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) close() {
	stopAllChildren()
	os.RemoveAll(b.dir)
}

// An instance is one set-up: a forked server, the load generator's
// machine connected to it, the preloaded files and the warmed callers.
type instance struct {
	dir     string
	srv     *server
	cli     *client
	callers []*caller

	setupS       float64 // server fork → warm-up done
	setupWorkMs  float64 // server fork → files preloaded: set-up without the fixed warm-up time
	importRootMs float64 // both roots imported and the first call on fs answered
}

func (in *instance) close() {
	if in.cli != nil {
		in.cli.close()
	}
	if in.srv != nil {
		in.srv.stop()
	}
	os.RemoveAll(in.dir)
}

// setup forks a fresh server for w and brings it to the state a timed
// window starts from: roots imported, files preloaded, and the workload's
// own load run against it for the warm-up time, so that inline promotion,
// buffer pools, the cache and the arrival process are in steady state. The
// clock for setup_s starts at the fork; building the binaries is not part
// of it.
func (b *bench) setup(w *workload, seed uint64, traceSample int) (*instance, error) {
	b.instances++
	in := &instance{dir: filepath.Join(b.dir, fmt.Sprintf("i%d", b.instances))}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	var err error
	if in.srv, err = startServer(b.springfsd, in.dir, w.server, traceSample); err != nil {
		in.close()
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		out := in.srv.output()
		in.close()
		return nil, fmt.Errorf("%w\nspringfsd output:\n%s", err, out)
	}
	t0 := time.Now()
	if in.cli, err = connect(in.srv.addr, w.server.unix); err != nil {
		return fail(err)
	}
	if _, err := in.cli.fs.List(); err != nil {
		return fail(fmt.Errorf("first call on fs: %w", err))
	}
	in.importRootMs = float64(time.Since(t0)) / float64(time.Millisecond)
	files, err := preload(in.cli.fs, seed, w.files)
	if err != nil {
		return fail(err)
	}
	in.setupWorkMs = float64(time.Since(start)) / float64(time.Millisecond)
	in.callers = w.newCallers(seed, files)
	warm, err := in.drive(w, seed, b.t.warm, 0, nil, false, nil)
	if err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	if e := warm.win.firstErr.Load(); e != nil {
		return fail(fmt.Errorf("warm-up: %d of %d calls failed; the first: %w", warm.win.failed.Load(), warm.win.attempted.Load(), *e))
	}
	in.setupS = time.Since(start).Seconds()
	return in, nil
}

// procSample is the kernel's account of both processes at one instant.
type procSample struct {
	at                   time.Time
	serverCPU, clientCPU float64 // seconds
	serverSw, clientSw   uint64  // voluntary context switches
}

func (in *instance) sampleProcs(withSwitches bool) (procSample, error) {
	s := procSample{at: time.Now()}
	var err error
	if s.serverCPU, err = procCPUSeconds(in.srv.pid()); err != nil {
		return s, err
	}
	if s.clientCPU, err = procCPUSeconds(os.Getpid()); err != nil {
		return s, err
	}
	if withSwitches {
		if s.serverSw, err = procVoluntaryCtxSw(in.srv.pid()); err != nil {
			return s, err
		}
		if s.clientSw, err = procVoluntaryCtxSw(os.Getpid()); err != nil {
			return s, err
		}
	}
	return s, nil
}

// A timed is everything one window produced.
type timed struct {
	win           *window
	before, after procSample
}

// drive runs w's load against in for ramp and then seconds of timed
// window, sampling both processes as the window opens and as it closes.
// atEdge, when set, is called at both edges too (the scrapes of the
// traced run); tr makes every call a traced one.
func (in *instance) drive(w *workload, seed uint64, ramp time.Duration, seconds int, tr *tracer, switches bool, atEdge func(closing bool) error) (*timed, error) {
	loadStart := time.Now()
	if w.openRate > 0 {
		loadStart = loadStart.Add(tickerLead)
	}
	win := newWindow(loadStart, ramp, seconds)
	g := &loadgen{w: w, callers: in.callers, win: win, tr: tr}
	done := make(chan struct{})
	go func() {
		g.run(seed)
		close(done)
	}()
	t := &timed{win: win}
	var err error
	edge := func(at time.Time, closing bool, into *procSample) {
		time.Sleep(time.Until(at))
		var e error
		if *into, e = in.sampleProcs(switches); e != nil && err == nil {
			err = e
		}
		if atEdge != nil {
			if e := atEdge(closing); e != nil && err == nil {
				err = e
			}
		}
	}
	edge(win.start, false, &t.before)
	edge(win.end(), true, &t.after)
	<-done
	if err != nil {
		return nil, err
	}
	if in.srv.exited() {
		return nil, fmt.Errorf("springfsd exited during the window; its output:\n%s", in.srv.output())
	}
	return t, nil
}

// sliceFigures reduces a window to medians over its slices (a host hiccup
// spoils a slice, not the run) and, for the budget, the mean over all of
// it.
type sliceFigures struct {
	callsPerS, payloadMBPerS float64
	p50Us, p99Us, meanUs     float64
	calls                    uint64 // completed and verified inside the window
	samples                  uint64 // of those, the calls behind the latency figures
}

func (w *window) figures() sliceFigures {
	var calls, mb, p50, p99 []float64
	var all dist
	var f sliceFigures
	for i := range w.slices {
		s := &w.slices[i]
		var d dist
		d.add(&s.lat)
		all.add(&s.lat)
		calls = append(calls, float64(s.calls.Load()))
		mb = append(mb, float64(s.bytes.Load())/1e6)
		p50 = append(p50, d.quantile(0.5)/1e3)
		p99 = append(p99, d.quantile(0.99)/1e3)
		f.calls += s.calls.Load()
	}
	f.callsPerS, f.payloadMBPerS = median(calls), median(mb)
	f.p50Us, f.p99Us = median(p50), median(p99)
	f.meanUs, f.samples = all.mean()/1e3, all.n
	return f
}

// workloadFloor measures w's floor: the ping-pong of its sizes and
// transport, plus — for a workload whose calls are durable writes — one
// append+fsync in the WAL's filesystem, since the cheapest possible
// version of such a call pays both. d is the ping-pong's length.
func (b *bench) workloadFloor(w *workload, walDir string, d time.Duration) (floorResult, error) {
	fl, err := b.peer.pingPong(w.floor, d)
	if err != nil || !w.server.wal {
		return fl, err
	}
	fs, err := fsyncFloor(walDir, d/3)
	return floorResult{p50: fl.p50 + fs.p50, mean: fl.mean + fs.mean, samples: fl.samples}, err
}

// candidates reduces one untraced window on in to the candidateDefs
// figures. floor is the workload's floor around the window; setups are the
// run's set-up times.
func (b *bench) candidates(w *workload, in *instance, t *timed, floor floorResult, setups []float64) (map[string]float64, error) {
	rss, err := procPeakRSSMB(in.srv.pid())
	if err != nil {
		return nil, err
	}
	f := t.win.figures()
	cpu := (t.after.serverCPU - t.before.serverCPU) + (t.after.clientCPU - t.before.clientCPU)
	b.log("%s: %d calls verified in %d s (%d latency samples), floor p50 %.1f µs (%d round trips), set-ups %.3v s",
		w.name, f.calls, len(t.win.slices), f.samples, floor.p50, floor.samples, setups)
	if w.openRate > 0 {
		var lag, svc dist
		lag.add(&t.win.lag)
		svc.add(&t.win.service)
		b.log("%s: arrivals fired late by p50 %.1f µs, p99 %.1f µs; service p50 %.1f µs, at most %d in flight, %d dropped",
			w.name, lag.quantile(0.5)/1e3, lag.quantile(0.99)/1e3, svc.quantile(0.5)/1e3, t.win.inflightMax.Load(), t.win.dropped.Load())
		if share := t.win.schedLagShare(); b.t.gateLag && share > schedLagGuard {
			b.invalid("%s: the arrival clock's p99 lateness is %.0f %% of p50_us, over the %.0f %% guard: the latencies hold that much of the generator",
				w.name, 100*share, 100*schedLagGuard)
		}
	}
	return map[string]float64{
		"setup_s":         median(setups),
		"calls_per_s":     f.callsPerS,
		"p50_us":          f.p50Us,
		"p99_us":          f.p99Us,
		"cpu_us_per_call": ratio(cpu*1e6, float64(f.calls)),
		"x_floor":         ratio(f.p50Us, floor.p50),
		"server_rss_mb":   rss,
	}, nil
}

// schedLagGuard is the issue's validity guard for the open loop: the
// arrival clock's p99 lateness as a share of p50_us.
const schedLagGuard = 0.10

// schedLagShare is the open loop's p99 arrival lateness ÷ its p50 latency.
func (w *window) schedLagShare() float64 {
	var lag dist
	lag.add(&w.lag)
	return ratio(lag.quantile(0.99)/1e3, w.figures().p50Us)
}

// endToEnd is the untraced run: the numbers a user of the system sees. It
// sets up several times, because the contract BENCHMARK.json is written
// to asks for setup_s as the median of several set-ups in a run; the last
// set-up is the one measured.
func (b *bench) endToEnd(w *workload, seed uint64, seconds int) (map[string]float64, *window, error) {
	var setups []float64
	var in *instance
	for i := 0; i < b.t.setupRepeats; i++ {
		if in != nil {
			in.close()
		}
		var err error
		if in, err = b.setup(w, seed, 0); err != nil {
			return nil, nil, err
		}
		setups = append(setups, in.setupS)
	}
	defer in.close()

	floorA, err := b.workloadFloor(w, in.srv.walDir, b.t.floor)
	if err != nil {
		return nil, nil, fmt.Errorf("floor: %w", err)
	}
	t, err := in.drive(w, seed, b.t.ramp, seconds, nil, false, nil)
	if err != nil {
		return nil, nil, err
	}
	floorB, err := b.workloadFloor(w, in.srv.walDir, b.t.floor)
	if err != nil {
		return nil, nil, fmt.Errorf("floor: %w", err)
	}
	m, err := b.candidates(w, in, t, mid(floorA, floorB), setups)
	return m, t.win, err
}

// perLayer is the traced invocation: probes, then an untraced window
// bracketed by floors and scrapes (counts, histograms, the budget), then
// a window against a server restarted with -trace-sample 1 in which every
// call is traced (self times, and the price of tracing itself).
func (b *bench) perLayer(w *workload, seed uint64, seconds int) (map[string]float64, *window, error) {
	m := make(map[string]float64)
	for _, d := range perLayerDefs {
		m[d.name] = 0
	}
	probes, err := runProbes(b.dir, b.t.probe)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	half := max(seconds/2, 1)
	plain, err := b.scrapedHalf(m, w, seed, half)
	if err != nil {
		return nil, nil, err
	}
	traced, err := b.tracedHalf(m, w, seed, max(seconds-half, 1))
	if err != nil {
		return nil, nil, err
	}
	pf, tf := plain.win.figures(), traced.win.figures()
	m["trace.overhead_share"] = ratio(tf.p50Us, pf.p50Us) - 1
	b.log("%s: scraped window %d calls in %d s; traced window %d calls in %d s, %.0f traces tallied",
		w.name, pf.calls, half, tf.calls, seconds-half, m["trace.traces_sampled"])

	// Both windows count toward attempted and failed.
	plain.win.attempted.Add(traced.win.attempted.Load())
	plain.win.failed.Add(traced.win.failed.Load())
	if e := traced.win.firstErr.Load(); e != nil {
		plain.win.firstErr.CompareAndSwap(nil, e)
	}
	return m, plain.win, nil
}

// scrapedHalf runs an untraced window, scraping both processes as it
// opens and closes and measuring the floors around it, and fills m with
// everything that comes from floors, scrapes and the budget.
func (b *bench) scrapedHalf(m map[string]float64, w *workload, seed uint64, seconds int) (*timed, error) {
	in, err := b.setup(w, seed, 0)
	if err != nil {
		return nil, err
	}
	defer in.close()
	m["naming.import_root_ms"] = in.importRootMs
	m["loadgen.setup_work_ms"] = in.setupWorkMs
	walDir := in.srv.walDir
	if walDir == "" {
		walDir = in.dir
	}
	// The workload's own floor brackets the window as in the untraced
	// run; the general floors behind it inherit the steady state its long
	// ping-pong reached (see pingPong) and run a third as long, once.
	flA, err := b.workloadFloor(w, walDir, b.t.floor)
	if err != nil {
		return nil, fmt.Errorf("floor: %w", err)
	}
	for name, spec := range map[string]floorSpec{
		"os.tcp_pingpong_p50_us":      {},
		"os.unix_pingpong_p50_us":     {unix: true},
		"os.unix_pingpong_64k_p50_us": {unix: true, req: bulkBlock, reply: bulkBlock},
	} {
		fl, err := b.peer.pingPong(spec, b.t.floor/3)
		if err != nil {
			return nil, fmt.Errorf("floor: %w", err)
		}
		m[name] = fl.p50
	}
	fsync, err := fsyncFloor(walDir, b.t.floor/3)
	if err != nil {
		return nil, fmt.Errorf("floor: %w", err)
	}
	m["os.fsync_1k_p50_us"] = fsync.p50

	var srv [2]*serverScrape
	var cli [2]*clientScrape
	t, err := in.drive(w, seed, b.t.ramp, seconds, nil, true, func(closing bool) (err error) {
		i := 0
		if closing {
			i = 1
		}
		cli[i] = scrapeClient()
		srv[i], err = scrapeServer(in.srv.telemetry)
		return err
	})
	if err != nil {
		return nil, err
	}
	flB, err := b.workloadFloor(w, walDir, b.t.floor)
	if err != nil {
		return nil, fmt.Errorf("floor: %w", err)
	}
	floor := mid(flA, flB)
	layerFigures(m, w, t, serverDelta{srv[0], srv[1]}, clientDelta{cli[0], cli[1]}, floor.mean)
	cand, err := b.candidates(w, in, t, floor, []float64{in.setupS})
	if err != nil {
		return nil, err
	}
	for name, v := range cand {
		if demoted[name] {
			m["loadgen."+name] = v
		}
	}

	if w.openRate > 0 {
		// The saturation probe: what 64 closed-loop callers of the same
		// mix sustain, which is what gives the fixed offered rate its
		// meaning as a share of capacity.
		sat, satIn := *w, *in
		sat.openRate, sat.callers = 0, 64
		satIn.callers = in.callers[:64]
		st, err := satIn.drive(&sat, seed, b.t.ramp, 2, nil, false, nil)
		if err != nil {
			return nil, err
		}
		m["loadgen.sat_calls_per_s"] = st.win.figures().callsPerS
	}
	return t, nil
}

// tracedHalf restarts the server with -trace-sample 1, makes every call
// the root of its own trace, and fills m with the self time of each
// layer's span, sampled five times a second from the traces that
// finished last.
func (b *bench) tracedHalf(m map[string]float64, w *workload, seed uint64, seconds int) (*timed, error) {
	trace.SetSampling(1)
	defer trace.SetSampling(0)
	in, err := b.setup(w, seed, 1)
	if err != nil {
		return nil, err
	}
	defer in.close()
	tr := newTracer(32)
	tally := newSpanTally()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				tally.collect(in.srv.telemetry, tr.take())
			case <-stop:
				return
			}
		}
	}()
	t, err := in.drive(w, seed, b.t.ramp, seconds, tr, false, nil)
	close(stop)
	<-stopped
	if err != nil {
		return nil, err
	}
	m["trace.loadgen_call_self_us"] = tally.meanSelfUs("loadgen.call")
	m["trace.invoke_self_us"] = tally.meanSelfUs(w.subcontract + ".invoke")
	m["trace.netd_send_self_us"] = tally.meanSelfUs("netd.send")
	m["trace.dispatch_wait_self_us"] = tally.meanSelfUs("netd.dispatch.wait")
	m["trace.serve_self_us"] = tally.meanSelfUs("netd.serve")
	m["trace.skeleton_self_us"] = tally.meanSelfUs("skeleton")
	m["trace.cache_miss_self_us"] = tally.meanSelfUs("cache.miss")
	m["trace.traces_sampled"] = float64(tally.traces)
	return t, nil
}
