// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON benchmark record, preserving a baseline across runs so the
// file carries before/after numbers. Repeated names (a -count=N run) are
// collapsed to per-metric medians, so recorded cells resist scheduler
// noise.
//
// Usage:
//
//	go test -run NONE -bench E15 -benchmem . | benchjson -o BENCH_netd.json
//
// On the first run the parsed results are stored as both "baseline" and
// "current". On later runs an existing file's baseline is preserved and
// only "current" is replaced — so the committed artifact records the
// pre-change numbers next to the latest ones. Pass -rebaseline to promote
// the new run to the baseline as well. Every file carries a "host" block —
// CPU count, the run's GOMAXPROCS, Go version, kernel release — describing
// the machine "current" was measured on.
//
// With -pair it is something else: see pair.go.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Host fingerprints the machine and toolchain a run was made on, so that a
// recorded number is not read against a host it never ran on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the benchmark run, from its -N name suffix
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel,omitempty"`
}

// File is the on-disk schema. Host describes the Current run.
type File struct {
	Experiment string   `json:"experiment"`
	Note       string   `json:"note,omitempty"`
	Host       Host     `json:"host"`
	Baseline   []Result `json:"baseline"`
	Current    []Result `json:"current"`
}

var (
	out        = flag.String("o", "", "output JSON file (default stdout)")
	experiment = flag.String("experiment", "E15 netd pipelined throughput (loopback TCP)", "experiment label")
	note       = flag.String("note", "", "free-form note stored in the file")
	rebaseline = flag.Bool("rebaseline", false, "promote this run to the baseline too")
)

// benchLine matches e.g.
//
//	BenchmarkE15_Throughput_P64_0B-8   12345   9876 ns/op   512 B/op   4 allocs/op   101234 calls/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parse returns the aggregated results and the GOMAXPROCS the benchmarks
// ran at (go test appends it to each name, except when it is 1).
func parse(lines []string) ([]Result, int) {
	var results []Result
	procs := 1
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		if n, err := strconv.Atoi(m[2]); err == nil {
			procs = n
		}
		r := Result{Name: m[1], Iters: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	return aggregate(results), procs
}

// aggregate collapses repeated benchmark names (a -count=N run) into one
// result per name carrying the per-metric median, so the recorded cells
// are stable against scheduler noise instead of whichever run came last.
// Order of first appearance is preserved. Iters is the median too
// (rounded), purely informational.
func aggregate(results []Result) []Result {
	byName := map[string][]Result{}
	var order []string
	for _, r := range results {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		if len(runs) == 1 {
			out = append(out, runs[0])
			continue
		}
		agg := Result{Name: name, Metrics: map[string]float64{}}
		var iters []float64
		keys := map[string]struct{}{}
		for _, r := range runs {
			iters = append(iters, float64(r.Iters))
			for k := range r.Metrics {
				keys[k] = struct{}{}
			}
		}
		agg.Iters = int64(median(iters))
		for k := range keys {
			var vals []float64
			for _, r := range runs {
				if v, ok := r.Metrics[k]; ok {
					vals = append(vals, v)
				}
			}
			agg.Metrics[k] = median(vals)
		}
		out = append(out, agg)
	}
	return out
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return quantile(vals, 0.5)
}

func main() {
	flag.Parse()
	if *pair {
		if err := runPairs(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	current, procs := parse(lines)
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	host := Host{NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version()}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil { // absent off Linux: left empty
		host.Kernel = strings.TrimSpace(string(rel))
	}
	f := File{Experiment: *experiment, Note: *note, Host: host, Baseline: current, Current: current}
	if *out != "" && !*rebaseline {
		if prev, err := os.ReadFile(*out); err == nil {
			var old File
			if json.Unmarshal(prev, &old) == nil && len(old.Baseline) > 0 {
				f.Baseline = old.Baseline
				if f.Note == "" {
					f.Note = old.Note
				}
			}
		}
	}
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(current), *out)
}
