package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary where
// the benchmark re-executes itself: as the floor peer and as the ticker.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 {
		child := map[string]func(string) error{"-floor-peer": runFloorPeer, "-ticker": runTicker}[os.Args[1]]
		if child != nil {
			if err := child(os.Args[2]); err != nil {
				os.Exit(1)
			}
			return
		}
	}
	os.Exit(m.Run())
}

func near(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10) // uniform on (0, 1 ms]
	}
	var d dist
	d.add(&h)
	for _, c := range []struct{ q, want float64 }{{0.5, 500_000}, {0.99, 990_000}, {0.001, 1000}} {
		if got := d.quantile(c.q); !near(got, c.want, 0.01) {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	if got := d.mean(); !near(got, 500_005, 1e-9) {
		t.Errorf("mean = %v, want 500005 exactly (the sum is not bucketed)", got)
	}
	for _, v := range []uint64{0, 1, 63, 64, 65, 1000, 1 << 20, 1<<36 - 1, 1 << 40} {
		lo, hi := histBounds(histIndex(v))
		if v < 1<<histMaxExp && (float64(v) < lo || float64(v) >= hi) {
			t.Errorf("value %d filed in bucket [%v, %v)", v, lo, hi)
		}
	}
}

// A host hiccup in one slice must move neither the throughput figure nor
// p50 nor p99: all are medians over slices.
func TestSliceMediansShrugOffOneBadSlice(t *testing.T) {
	start := time.Now()
	w := newWindow(start, 0, 5)
	for s := 0; s < 5; s++ {
		at := start.Add(time.Duration(s)*time.Second + time.Millisecond)
		n, lat := 1000, 100*time.Microsecond
		if s == 2 { // the hiccup: a tenth of the calls, fifty times slower
			n, lat = 100, 5*time.Millisecond
		}
		for i := 0; i < n; i++ {
			w.record(op{}, at, lat, lat, 1024, nil)
		}
	}
	f := w.figures()
	if f.callsPerS != 1000 {
		t.Errorf("calls_per_s = %v, want the median slice's 1000", f.callsPerS)
	}
	if !near(f.p50Us, 100, 0.02) || !near(f.p99Us, 100, 0.02) {
		t.Errorf("p50_us = %v, p99_us = %v, want ≈100 (the medians of the slices' figures)", f.p50Us, f.p99Us)
	}
	if !near(f.meanUs, (4000*100+100*5000)/4100.0, 0.02) {
		t.Errorf("mean = %v µs, want every call's mean (the budget's means must add)", f.meanUs)
	}
	if !near(f.payloadMBPerS, 1.024, 1e-9) {
		t.Errorf("payload = %v MB/s, want 1.024", f.payloadMBPerS)
	}
	if f.calls != 4100 || w.attempted.Load() != 4100 || w.failed.Load() != 0 {
		t.Errorf("calls %d attempted %d failed %d, want 4100/4100/0", f.calls, w.attempted.Load(), w.failed.Load())
	}
	// Calls outside the window are attempted but not measured; errors and
	// calls past the deadline are failures.
	w.record(op{}, start.Add(-time.Millisecond), time.Microsecond, time.Microsecond, 0, nil)
	w.record(op{}, start.Add(6*time.Second), time.Microsecond, time.Microsecond, 0, nil)
	w.record(op{}, start.Add(time.Second), 2*time.Second, 2*time.Second, 0, nil)
	w.record(op{}, start.Add(time.Second), time.Microsecond, time.Microsecond, 0, errWrong)
	if got := w.figures().calls; got != 4100 {
		t.Errorf("calls = %d after out-of-window and failed records, want 4100", got)
	}
	if w.attempted.Load() != 4104 || w.failed.Load() != 2 {
		t.Errorf("attempted %d failed %d, want 4104/2", w.attempted.Load(), w.failed.Load())
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 8, 4, 10, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q3 := quartiles([]float64{10, 20, 40}); q1 != 10 || q3 != 40 {
		t.Errorf("quartiles of three = %v, %v; want 10, 40", q1, q3)
	}
}

// A/A's rule: a bound is max(default, 3 × the worst spread over the
// workloads), and a metric whose worst spread is over keepSpread is not
// given a wide bound but demoted.
func TestAABoundsAndDemotion(t *testing.T) {
	// Ten values with median 100 whose quartiles, as statistics.quantiles
	// places them (at ranks 2.75 and 8.25), are 100 ∓ 1.25 h.
	withSpread := func(sp float64) []float64 {
		h := 100 * sp / 2.5
		return []float64{100 - 2*h, 100 - 2*h, 100 - h, 100 - h, 100, 100, 100 + h, 100 + h, 100 + 2*h, 100 + 2*h}
	}
	pass := make(map[string]map[string][]float64)
	for _, w := range workloads() {
		pass[w.name] = map[string][]float64{}
		for _, d := range candidateDefs {
			pass[w.name][d.name] = withSpread(0.01)
		}
	}
	pass["small_open"]["p50_us"] = withSpread(0.05)
	pass["small_open"]["p99_us"] = withSpread(0.12)
	pass["null_c1"]["setup_s"] = withSpread(0.60)
	if got := spread(pass["small_open"]["p50_us"]); !near(got, 0.05, 1e-9) {
		t.Fatalf("the test's own values have spread %v, want 0.05", got)
	}
	bounds, demote := aaBounds(pass)
	if len(demote) != 1 || demote["p99_us"] == "" {
		t.Errorf("demoted %v, want p99_us alone (setup_s is never demoted: its spread is not gated)", demote)
	}
	def := defaultBounds()
	for name, want := range map[string]float64{
		"p50_us":      0.15,               // 3 × 0.05 is over the default 0.08
		"calls_per_s": def["calls_per_s"], // 3 × 0.01 is under the default
		"setup_s":     def["setup_s"],
	} {
		if !near(bounds[name], want, 1e-9) {
			t.Errorf("bound of %s = %v, want %v", name, bounds[name], want)
		}
	}
	if 3*keepSpread > maxBound+1e-12 {
		t.Errorf("a kept metric could need a bound of %v, over the contract's %v", 3*keepSpread, maxBound)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	// The arrival schedule.
	a, b, c := newSchedule(7, "small_open", 20000), newSchedule(7, "small_open", 20000), newSchedule(8, "small_open", 20000)
	same, differs := true, false
	var last time.Duration
	for i := 0; i < 10000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		same = same && x == y
		differs = differs || x != z
		last = x
	}
	if !same || !differs {
		t.Errorf("schedule: same seed same=%v, other seed differs=%v", same, differs)
	}
	if rate := 10000 / last.Seconds(); !near(rate, 20000, 0.05) {
		t.Errorf("10000 arrivals took %v: %v/s, want ≈20000/s", last, rate)
	}

	// The op mix of every caller of every workload.
	for _, w := range workloads() {
		files := make([]*file, len(w.files))
		for i, sp := range w.files {
			files[i] = &file{fileSpec: sp, id: i, vers: make([]uint32, sp.size/sp.block)}
		}
		draw := func(seed uint64) [][]op {
			var out [][]op
			for _, c := range w.newCallers(seed, files) {
				ops := make([]op, 500)
				for i := range ops {
					ops[i] = c.next()
				}
				out = append(out, ops)
			}
			return out
		}
		x, y, z := draw(3), draw(3), draw(4)
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: the same seed gave different op sequences", w.name)
		}
		if reflect.DeepEqual(x, z) && w.name != "durable_write_c16" { // whose sequence is fixed by design
			t.Errorf("%s: different seeds gave the same op sequences", w.name)
		}
		for ci, ops := range x {
			idx, _ := w.assign(min(ci, w.callers-1))
			for _, o := range ops {
				f := w.files[idx[o.file]]
				if o.kind == opRead || o.kind == opWrite {
					if o.off%8 != 0 || o.off+int64(o.n) > f.size || (o.kind == opWrite && (o.off%f.block != 0 || int64(o.n) != f.block)) {
						t.Fatalf("%s caller %d: op %+v does not fit %+v", w.name, ci, o, f)
					}
				}
			}
		}
	}
}

func TestPatternDetectsAFlippedBit(t *testing.T) {
	p := make([]byte, smallBlock)
	key := contentKey(1, 2, 3)
	fillPattern(p, key, 4096)
	if !checkPattern(p, key, 4096) {
		t.Fatal("a freshly filled block does not verify")
	}
	if checkPattern(p, key, 4104) || checkPattern(p, contentKey(1, 2, 4), 4096) || checkPattern(p[:len(p)-8], key, 4104) {
		t.Error("a block verified at the wrong offset or version")
	}
	for _, i := range []int{0, 511, len(p) - 1} {
		p[i] ^= 0x10
		if checkPattern(p, key, 4096) {
			t.Errorf("a flipped bit in byte %d went unnoticed", i)
		}
		p[i] ^= 0x10
	}
}

func TestStatzBucketSubtraction(t *testing.T) {
	prev := []bucket{{1000, 2000, 10}, {2000, 4000, 5}}
	cur := []bucket{{1000, 2000, 110}, {2000, 4000, 5}, {4000, 8000, 100}, {1 << 40, -1, 1}}
	d := subBuckets(cur, prev)
	want := []bucket{{1000, 2000, 100}, {4000, 8000, 100}, {1 << 40, -1, 1}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("cur − prev = %v, want %v", d, want)
	}
	if n := bucketCount(d); n != 201 {
		t.Errorf("count = %d, want 201", n)
	}
	// Rank 100.5 of 201: the last sample of the first bucket, near its top.
	if got := bucketQuantile(d, 0.5); got < 1990 || got > 4100 {
		t.Errorf("p50 = %v, want at the boundary of the first two buckets", got)
	}
	if got := bucketQuantile(d, 0.25); !near(got, 1502.5, 0.01) {
		t.Errorf("p25 = %v, want ≈1500 (middle of the first bucket)", got)
	}
	if got := bucketQuantile(d, 1); got != 1<<40 {
		t.Errorf("p100 = %v, want the unbounded bucket's lower bound", got)
	}
	if got, want := bucketSum(d), 100*1500.0+100*6000.0+float64(int64(1)<<40); got != want {
		t.Errorf("sum = %v, want %v (midpoints; the unbounded bucket at its lower bound)", got, want)
	}
	if got := bucketQuantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty window = %v, want 0", got)
	}
}

func TestParseMetricsKeepsOnlyUnlabelledSeries(t *testing.T) {
	m := parseMetrics("# TYPE wal_syncs_total counter\nwal_syncs_total 42\n" +
		"subcontract_calls_total{subcontract=\"netd\"} 7\ndispatch_queue_delay_seconds_bucket{le=\"0.001\"} 3 # {trace_id=\"ab\"} 0.0008\ndispatch_inline_hits_total 9\n\n")
	if len(m) != 2 || m["wal_syncs_total"] != 42 || m["dispatch_inline_hits_total"] != 9 {
		t.Errorf("parsed %v", m)
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	// loadgen.call [0,100)
	//   simplex.invoke [5,95)
	//     netd.send [10,90)
	//       netd.dispatch.wait [30,40)
	//       netd.serve [40,60) — and a second child overlapping it [55,70),
	//                            and one running past the parent's end [85,120)
	//         skeleton [45,55)
	spans := []span{
		{1, 0, "loadgen.call", 0, 100},
		{2, 1, "simplex.invoke", 5, 90},
		{3, 2, "netd.send", 10, 80},
		{4, 3, "netd.dispatch.wait", 30, 10},
		{5, 3, "netd.serve", 40, 20},
		{6, 5, "skeleton", 45, 10},
		{7, 3, "overlap", 55, 15},
		{8, 3, "overrun", 85, 35},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 10, // 100 − 90
		2: 10, // 90 − 80
		3: 35, // 80 − (10 + 20 + 10 more of the overlap + 5 inside the parent)
		4: 10, 5: 10, 6: 10, 7: 15, 8: 35,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if !sendsAnswered(spans) {
		t.Error("a send with a serve beneath it reads as unanswered")
	}
	if sendsAnswered(spans[:4]) {
		t.Error("a send without a serve reads as answered")
	}
}

func TestBudgetRowsSumToTheMean(t *testing.T) {
	lat := func(n, meanUs float64) latDelta { return latDelta{n: n, sumUs: n * meanUs, meanUs: meanUs} }
	sum := func(r budgetRows) float64 {
		return r.loadgenStub + r.subcontract + r.netdPath + r.osFloor + r.dispatchWait + r.handler + r.residual
	}
	// Every call remote, a tenth queued.
	in := budgetInput{observedUs: 50, invoke: lat(1000, 48), rtt: lat(1000, 46), serve: lat(1000, 2), queue: lat(100, 10), floorUs: 12}
	r := in.rows()
	if !near(sum(r), 50, 1e-12) || r.residual != 0 {
		t.Errorf("rows %+v sum to %v, want 50 with no residual", r, sum(r))
	}
	if !near(r.netdPath, 46-2-1-12, 1e-12) || !near(r.dispatchWait, 1, 1e-12) {
		t.Errorf("netd path %v dispatch wait %v, want 31 and 1", r.netdPath, r.dispatchWait)
	}
	// Nine calls in ten are cache hits: only the misses cross netd.
	in = budgetInput{observedUs: 8, invoke: lat(1000, 7), rtt: lat(100, 50), serve: lat(100, 3), queue: lat(0, 0), floorUs: 12}
	r = in.rows()
	if !near(sum(r), 8, 1e-12) || !near(r.osFloor, 1.2, 1e-12) || !near(r.subcontract, 2, 1e-12) {
		t.Errorf("rows %+v sum to %v, want 8 with floor 1.2 and subcontract 2", r, sum(r))
	}
	// A floor dearer than what is left: clamped, and owned up to.
	in = budgetInput{observedUs: 20, invoke: lat(10, 19), rtt: lat(10, 18), serve: lat(10, 5), queue: lat(0, 0), floorUs: 15}
	r = in.rows()
	if r.netdPath != 0 || !near(r.residual, -2, 1e-12) || !near(sum(r), 20, 1e-12) {
		t.Errorf("rows %+v, want netd path clamped at 0 and a residual of −2", r)
	}
}

// BENCHMARK.json is generated from the tables; it must not drift.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := buildManifest(nil)
	for i := range got.EndToEnd {
		if b := got.EndToEnd[i].Bound; b == nil || *b <= 0 || *b > maxBound {
			t.Errorf("%s: bound %v, want in (0, %v]", got.EndToEnd[i].Name, b, maxBound)
		}
		got.EndToEnd[i].Bound = nil
	}
	for i := range want.EndToEnd {
		want.EndToEnd[i].Bound = nil
	}
	if !reflect.DeepEqual(got, want) {
		names := func(ms []manifestMetric) (out []string) {
			for _, m := range ms {
				out = append(out, m.Name+" "+m.Unit+" "+m.Better)
			}
			return out
		}
		t.Errorf("BENCHMARK.json does not match the benchmark's tables; regenerate it with -aa")
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"command", got.Command, want.Command}, {"paths", got.Paths, want.Paths}, {"run_seconds", got.RunSeconds, want.RunSeconds},
			{"workloads", got.Workloads, want.Workloads}, {"end_to_end", names(got.EndToEnd), names(want.EndToEnd)}, {"per_layer", names(got.PerLayer), names(want.PerLayer)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s:\n got %v\nwant %v", c.what, c.got, c.want)
			}
		}
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// The smoke path: every workload through both modes against a real
// springfsd, with windows too short to mean anything. It keeps the
// harness from rotting; it checks correctness, not numbers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("forks springfsd and runs every workload; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "springfsd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/springfsd").CombinedOutput(); err != nil {
		t.Fatalf("building springfsd: %v\n%s", err, out)
	}
	b, err := newBench(bin, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.t = smokeTiming

	for _, w := range workloads() {
		if w.openRate > 0 {
			w.openRate = 2000 // a rate any host sustains, even under the race detector
		}
		for _, traced := range []bool{false, true} {
			seconds := 1
			if traced {
				seconds = 2
			}
			r, err := b.runOne(w, 1, seconds, traced, false)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, r.Correct, r.Failed, r.Attempted)
			}
			if !traced {
				for name, v := range r.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
					}
				}
			}
		}
	}

	// Verification is on: with the expected pattern off by one bit, a
	// workload that reads file contents cannot pass.
	expectFlip = 1
	defer func() { expectFlip = 0 }()
	r, err := b.runOne(workloadByName("cached_read_c2"), 1, 1, false, false)
	if err == nil && r.Correct {
		t.Errorf("a run with a flipped expectation passed: %+v", r)
	}
	if err != nil && !errors.Is(err, errWrong) {
		t.Errorf("a run with a flipped expectation failed for another reason: %v", err)
	}
}
