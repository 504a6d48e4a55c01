// Command benchmark is the repository's end-to-end benchmark: a
// two-process measurement of the shipped springfsd. It forks the daemon
// as the server process (no GOMAXPROCS override, no flags the daemon does
// not already have), is itself the single load-generating client machine
// — wired exactly as cmd/fsh wires itself — drives the generated filesys
// stubs, checks every result, and prints every metric by name with its
// unit. benchmark/README.md is the glossary.
//
// One workload, one mode, the form BENCHMARK.json's command takes:
//
//	bash benchmark/run.sh --workload null_c1 --seed 1 --seconds 16 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// the last line of standard output is the result as one JSON object.
// Without --workload every workload runs in both modes and a report is
// printed; -smoke shortens that to one-second windows; -aa N runs the
// end-to-end suite N times twice over and derives the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// result is the contract's one-line answer.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in one mode and shapes the result. An
// untraced run reports the end-to-end metrics, or with allCandidates (A/A
// mode's own runs) the demoted candidates too.
func (b *bench) runOne(w *workload, seed uint64, seconds int, traced, allCandidates bool) (result, error) {
	defs, run := endToEndDefs, b.endToEnd
	if traced {
		defs, run = perLayerDefs, b.perLayer
	} else if allCandidates {
		defs = candidateDefs
	}
	values, win, err := run(w, seed, seconds)
	if err != nil {
		return result{}, err
	}
	r := result{
		Attempted: win.attempted.Load(),
		Failed:    win.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if e := win.firstErr.Load(); e != nil {
		b.log("%s: %d of %d calls failed; the first: %v", w.name, r.Failed, r.Attempted, *e)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s has no finite value (%v)", w.name, d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print its result as one JSON line")
		seed         = flag.Uint64("seed", 1, "seed of every generated input: op mixes, arrival schedule, file contents")
		seconds      = flag.Int("seconds", 10, "length of the timed window")
		traceMode    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: probes, scrapes and a traced run, per-layer metrics")
		springfsd    = flag.String("springfsd", "", "path of the built cmd/springfsd to benchmark (benchmark/run.sh builds it)")
		workdir      = flag.String("workdir", ".bench_build", "scratch directory for sockets, WAL directories and temporary files")
		smoke        = flag.Bool("smoke", false, "every workload, both modes, one-second windows and shortened set-up: proves the harness works, measures nothing")
		aa           = flag.Int("aa", 0, "A/A mode: run the end-to-end suite this many times, twice, derive the bounds and write them to BENCHMARK.json")
		floorPeer    = flag.String("floor-peer", "", "internal: serve the floor ping-pong on a TCP port and this unix socket")
		candidates   = flag.Bool("candidates", false, "internal: an untraced run prints every candidate end-to-end metric, the demoted ones too (A/A mode's runs)")
		ticker       = flag.String("ticker", "", "internal: be the arrival clock of an open-loop workload (seed, workload, rate, start)")
	)
	flag.Parse()
	if *ticker != "" {
		fatalIf(runTicker(*ticker))
		return
	}
	if *floorPeer != "" {
		fatalIf(runFloorPeer(*floorPeer))
		return
	}
	if *seconds < 1 {
		fatalIf(fmt.Errorf("--seconds %d: the window is at least one second", *seconds))
	}
	if *aa > 0 {
		fatalIf(runAA(*aa, *seed, *seconds, *springfsd, *workdir))
		return
	}

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) }
	b, err := newBench(*springfsd, *workdir, logf)
	fatalIf(err)
	cleanUpOnSignal(b.close)
	code := 0
	defer func() {
		b.close()
		os.Exit(code)
	}()
	if *smoke {
		b.t = smokeTiming
		*seconds = 1
	}
	fp := fingerprint(b.dir, *seed, *seconds)

	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			logf("no workload %q", *workloadName)
			code = 2
			return
		}
		logf("fingerprint: %s", fp)
		r, err := b.runOne(w, *seed, *seconds, *traceMode != 0, *candidates)
		if err != nil {
			logf("%v", err)
			code = 1
			return
		}
		line, err := json.Marshal(r)
		if err != nil {
			logf("%v", err)
			code = 1
			return
		}
		fmt.Println(string(line))
		// A failed call makes the run invalid: the result says so and so
		// does the exit code. The guards that fail no call (b.invalidity)
		// are on standard error and in loadgen.sched_lag_share; they cannot
		// change this mode's exit code, because the contract the command
		// line belongs to wants a result and a zero exit from every run.
		if !r.Correct {
			code = 1
		}
		return
	}

	// The report: every workload, both modes.
	fmt.Printf("fingerprint: %s\n", fp)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			secs := *seconds
			if traced && *smoke {
				secs = 2 // one scraped second, one traced
			}
			r, err := b.runOne(w, *seed, secs, traced, false)
			if err != nil {
				logf("%v", err)
				code = 1
				return
			}
			printReport(w, traced, r)
			if !r.Correct {
				b.invalid("%s: %d of %d calls failed", w.name, r.Failed, r.Attempted)
			}
		}
	}
	// The validity guards: a failed call, an early server exit (an error
	// above) and a late arrival clock each make the report invalid.
	fmt.Printf("\nvalidity: %d guard(s) tripped\n", len(b.invalidity))
	for _, msg := range b.invalidity {
		fmt.Printf("  INVALID: %s\n", msg)
	}
	if len(b.invalidity) > 0 {
		code = 1
	}
}

// printReport prints one result as a table, metrics in their declared
// order, and for a traced run the budget rows ranked by share.
func printReport(w *workload, traced bool, r result) {
	kind, defs := "end-to-end (untraced run)", endToEndDefs
	if traced {
		kind, defs = "per-layer (probes, scrapes, traced run)", perLayerDefs
	}
	fmt.Printf("\n== %s — %s: %d attempted, %d failed, correct=%v\n", w.name, kind, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %-6s (%s is better)\n", d.name, r.Metrics[d.name].Value, d.unit, d.better)
	}
	if !traced {
		return
	}
	rows := append([]string(nil), budgetRowNames...)
	share := func(row string) float64 { return r.Metrics["budget."+row+"_share"].Value }
	sort.Slice(rows, func(i, j int) bool { return share(rows[i]) > share(rows[j]) })
	fmt.Printf("  budget of the mean call (%.2f µs), most expensive first:\n", r.Metrics["budget.mean_us"].Value)
	for _, row := range rows {
		fmt.Printf("    %-14s %10.2f µs  %5.1f %%\n", row, r.Metrics["budget."+row+"_us"].Value, 100*share(row))
	}
	fmt.Printf("    %-14s %21.1f %%\n", "residual", 100*r.Metrics["budget.residual_share"].Value)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		stopAllChildren()
		os.Exit(1)
	}
}

// timing holds the durations a smoke run shortens. A real run always uses
// fullTiming: they are part of what the numbers mean.
type timing struct {
	setupRepeats int           // set-ups per end-to-end run; setup_s is their median
	warm         time.Duration // the last step of a set-up: the workload's own load runs this long
	ramp         time.Duration // a window opens this long after its load starts, once the callers are all under way
	floor        time.Duration // the first ping-pong floor of a group, before and again after the window
	probe        time.Duration // each in-process probe
	gateLag      bool          // whether a late arrival clock makes the run invalid; a smoke run's windows are too short to say
}

var (
	fullTiming  = timing{setupRepeats: 3, warm: time.Second, ramp: 250 * time.Millisecond, floor: 1200 * time.Millisecond, probe: 150 * time.Millisecond, gateLag: true}
	smokeTiming = timing{setupRepeats: 1, warm: 200 * time.Millisecond, ramp: 100 * time.Millisecond, floor: 40 * time.Millisecond, probe: 10 * time.Millisecond}
)
