// Command scbench runs the paper's full experiment suite (DESIGN.md §4)
// and prints a consolidated report in the shape of the paper's §9.3
// evaluation: the subcontract mechanism's overheads, and the behaviour of
// each example subcontract. EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	scbench [-quick] [-scstats]
//
// -scstats appends the per-subcontract metrics registry (calls, errors,
// context endings, latency histograms) accumulated over the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/scstats"
	"repro/internal/subcontracts/shm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var (
	quick = flag.Bool("quick", false, "run shorter benchmarks")
	stats = flag.Bool("scstats", false, "dump per-subcontract metrics after the run")

	telemetryAddr = flag.String("telemetry", "",
		"serve /metrics, /traces, /healthz and pprof on this address while the suite runs (empty = off)")
	traceSample = flag.Int("trace-sample", 0,
		"record a trace for 1 in N calls that arrive untraced (0 = only explicitly traced calls)")
	traceSlow = flag.Duration("trace-slow", 0,
		"tail-capture calls slower than this into /traces/slow, even when head sampling skips them (0 = off)")
	mixed = flag.Bool("mixed", false,
		"run only the E21 mixed small+bulk head-of-line workload and exit")
)

// run executes one experiment body under the testing benchmark driver.
// With the telemetry plane up, each cell is bracketed by two /statz
// totals scrapes and the busiest subcontract's window percentiles print
// under the ns/op line — the plane observing the benchmark that runs it.
func run(name string, fn func(*testing.B)) testing.BenchmarkResult {
	prev := scrapeStatz()
	r := testing.Benchmark(fn)
	fmt.Printf("  %-44s %12.0f ns/op %10d B/op %8d allocs/op\n",
		name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	if line := statzCellLine(scrapeStatz(), prev); line != "" {
		fmt.Printf("      %s\n", line)
	}
	return r
}

// runMixedHoL runs E21's two rows — two 64KiB bulk callers interfering with
// 8 small callers, over one shared connection and over the link's two — and
// prints each row's small-call rate and tail next to the bulk callers' rate.
func runMixedHoL() {
	section("E21 mixed small+bulk head-of-line workload (one shared connection vs call + bulk connections)")
	row := func(name string, shared bool) float64 {
		r := run(name, bench.E21MixedHoL(shared))
		fmt.Printf("      small %.0f calls/s, p99 %.0f ns; bulk %.0f calls/s\n",
			r.Extra["calls/s"], r.Extra["p99-ns"], r.Extra["bulk/s"])
		return r.Extra["calls/s"]
	}
	shared := row("small calls under bulk load, shared", true)
	isolated := row("small calls under bulk load, isolated", false)
	fmt.Printf("  => a bulk connection of its own serves the small callers %.1fx faster\n", isolated/shared)
}

// ---------------------------------------------------------------------
// /statz percentile bracketing.

// statzURL is set once the telemetry plane is listening; empty = skip
// the percentile brackets.
var statzURL string

// statzTotals is the subset of a /statz?window=0&buckets=1 response the
// cell brackets need: each subcontract's raw interval buckets.
type statzTotals struct {
	subs map[string][][3]int64 // name → [lo_ns, hi_ns, count] triples
}

func scrapeStatz() *statzTotals {
	if statzURL == "" {
		return nil
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(statzURL + "/statz?window=0&buckets=1")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var body struct {
		Subcontracts []struct {
			Name    string `json:"name"`
			Latency struct {
				Buckets [][3]int64 `json:"buckets"`
			} `json:"latency"`
		} `json:"subcontracts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	out := &statzTotals{subs: make(map[string][][3]int64)}
	for _, sc := range body.Subcontracts {
		out.subs[sc.Name] = sc.Latency.Buckets
	}
	return out
}

// statzCellLine diffs two totals scrapes and renders the busiest
// subcontract's window percentiles ("" when there is nothing to say).
func statzCellLine(cur, prev *statzTotals) string {
	if cur == nil || prev == nil {
		return ""
	}
	type win struct {
		name    string
		count   int64
		buckets [][3]int64
	}
	var best win
	for name, cb := range cur.subs {
		d := subStatzBuckets(cb, prev.subs[name])
		var n int64
		for _, b := range d {
			n += b[2]
		}
		if n > best.count {
			best = win{name: name, count: n, buckets: d}
		}
	}
	if best.count == 0 {
		return ""
	}
	q := func(p float64) time.Duration {
		return time.Duration(statzQuantile(best.buckets, p))
	}
	return fmt.Sprintf("statz[%s]: n=%d p50=%v p99=%v p999=%v",
		best.name, best.count, q(0.50), q(0.99), q(0.999))
}

// subStatzBuckets subtracts prev's counts from cur's, matching buckets
// on their bounds.
func subStatzBuckets(cur, prev [][3]int64) [][3]int64 {
	pc := make(map[[2]int64]int64, len(prev))
	for _, b := range prev {
		pc[[2]int64{b[0], b[1]}] = b[2]
	}
	out := make([][3]int64, 0, len(cur))
	for _, b := range cur {
		d := b[2] - pc[[2]int64{b[0], b[1]}]
		if d > 0 {
			out = append(out, [3]int64{b[0], b[1], d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// statzQuantile returns the q quantile in ns from interval [lo, hi,
// count] triples (hi −1 = unbounded), crediting each bucket at its
// upper bound.
func statzQuantile(buckets [][3]int64, q float64) int64 {
	var total int64
	for _, b := range buckets {
		total += b[2]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.9999)
	var seen int64
	for _, b := range buckets {
		seen += b[2]
		if seen >= rank {
			if b[1] < 0 {
				return b[0]
			}
			return b[1]
		}
	}
	last := buckets[len(buckets)-1]
	if last[1] < 0 {
		return last[0]
	}
	return last[1]
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func section(title string) {
	fmt.Printf("\n%s\n", title)
}

func main() {
	// Register the testing package's flags so -quick can shorten runs
	// through -test.benchtime.
	testing.Init()
	flag.Parse()
	trace.SetSampling(*traceSample)
	trace.SetSlowDefault(*traceSlow)
	if *telemetryAddr != "" {
		tp, err := telemetry.Start(*telemetryAddr)
		if err != nil {
			fmt.Println("note:", err)
		} else {
			defer tp.Close()
			statzURL = "http://" + tp.Addr()
			fmt.Printf("telemetry on http://%s\n", tp.Addr())
		}
	}
	if *quick {
		if err := flag.Set("test.benchtime", "100x"); err != nil {
			fmt.Println("note:", err)
		}
	}
	if *mixed {
		// The head-of-line cells on their own, for quick flush tuning.
		runMixedHoL()
		fmt.Println("\ndone.")
		return
	}
	fmt.Println("subcontract experiment suite (paper: SMLI TR-93-13, SOSP 1993)")
	fmt.Println("each experiment id matches DESIGN.md §4 and EXPERIMENTS.md")

	section("E1  §9.3 per-invocation subcontract overhead (minimal remote call)")
	direct := run("direct door call, 0B", bench.E1DirectDoorCall(0))
	single := run("stubs + singleton subcontract, 0B", bench.E1SubcontractCall("singleton", 0))
	run("stubs + simplex subcontract, 0B", bench.E1SubcontractCall("simplex", 0))
	run("simplex same-address-space fast path, 0B", bench.E1LocalOptimized(0))
	run("direct door call, 1KiB", bench.E1DirectDoorCall(1024))
	run("stubs + singleton subcontract, 1KiB", bench.E1SubcontractCall("singleton", 1024))
	fmt.Printf("  => subcontract machinery adds %.0f ns to a minimal call (paper: <2µs on a SPARCstation 2)\n",
		nsPerOp(single)-nsPerOp(direct))

	section("E2  §9.3 object-transmission overhead")
	raw := run("raw door identifier transfer", bench.E2RawDoorTransfer)
	one := run("subcontract object transfer, 1 door", bench.E2ObjectTransfer(1))
	run("subcontract object transfer, 3 doors", bench.E2ObjectTransfer(3))
	fmt.Printf("  => marshal/unmarshal + subcontract ID add %.0f ns per transmitted object\n",
		nsPerOp(one)-nsPerOp(raw))
	if hdr, objB, rawB, err := bench.WireSizes(); err == nil {
		fmt.Printf("  => E12 wire size: %d bytes/object vs %d raw (+%d-byte subcontract header)\n", objB, rawB, hdr)
	}

	section("E3  §7 full simplex object life cycle (create/transmit/invoke/copy/consume)")
	run("lifecycle", bench.E3Lifecycle)

	section("E4  §5 replicon: invocation and failover")
	run("invoke, 1 replica alive", bench.E4InvokeAllAlive(1))
	run("invoke, 3 replicas alive", bench.E4InvokeAllAlive(3))
	run("invoke, 5 replicas alive", bench.E4InvokeAllAlive(5))
	run("first call after 1 of 3 crash", bench.E4FailoverFirstCall(3, 1))
	run("first call after 4 of 5 crash", bench.E4FailoverFirstCall(5, 4))

	section("E5  §8.1 cluster vs simplex (doors per object; invoke cost)")
	run("export 1000 objects via simplex", bench.E5ExportDoors("simplex", 1000))
	run("export 1000 objects via cluster", bench.E5ExportDoors("cluster", 1000))
	run("invoke via simplex", bench.E5Invoke("simplex"))
	run("invoke via cluster (tag dispatch)", bench.E5Invoke("cluster"))

	section("E6  §8.2 caching subcontract vs plain remote file reads (loopback TCP)")
	cached := run("1KiB read, caching subcontract", bench.E6Read("caching"))
	plain := run("1KiB read, plain subcontract", bench.E6Read("plain"))
	fmt.Printf("  => local cache manager serves repeats %.1fx faster than crossing the wire\n",
		nsPerOp(plain)/nsPerOp(cached))
	run("95/5 read/write mix, caching", bench.E6Mixed("caching"))
	run("95/5 read/write mix, plain", bench.E6Mixed("plain"))

	section("E7  §8.3 reconnectable: crash recovery")
	run("steady state call", bench.E7SteadyState)
	run("first call after crash+restart", bench.E7ReconnectFirstCall)

	section("E8  §5.1.5 marshal_copy vs copy-then-marshal")
	run("copy then marshal, 1 door", bench.E8CopyThenMarshal(1))
	run("marshal_copy, 1 door", bench.E8MarshalCopy(1))
	run("copy then marshal, 4 doors", bench.E8CopyThenMarshal(4))
	run("marshal_copy, 4 doors", bench.E8MarshalCopy(4))

	section("E9  §5.1.4 invoke_preamble shared-buffer optimization")
	run("direct-into-region, 64B", bench.E9Echo(shm.Direct, 64))
	run("copy-after-marshal, 64B", bench.E9Echo(shm.CopyAfter, 64))
	run("direct-into-region, 4KiB", bench.E9Echo(shm.Direct, 4096))
	run("copy-after-marshal, 4KiB", bench.E9Echo(shm.CopyAfter, 4096))
	run("direct-into-region, 64KiB", bench.E9Echo(shm.Direct, 65536))
	run("copy-after-marshal, 64KiB", bench.E9Echo(shm.CopyAfter, 65536))

	section("E10 §6.2 dynamic subcontract discovery")
	run("cold (miss + name lookup + dynamic link)", bench.E10DiscoveryCold)
	run("warm (subcontract already linked)", bench.E10DiscoveryWarm)

	section("E13 §9.1 specialized stubs (type+subcontract combination)")
	gen := run("general-purpose stubs, 0B", bench.E13Call("generic", 0))
	spec := run("specialized stubs, 0B", bench.E13Call("specialized", 0))
	run("general-purpose stubs, 1KiB", bench.E13Call("generic", 1024))
	run("specialized stubs, 1KiB", bench.E13Call("specialized", 1024))
	fmt.Printf("  => specialization recovers %.0f ns of the subcontract indirection\n",
		nsPerOp(gen)-nsPerOp(spec))

	section("E14 invocation-context threading overhead (minimal call)")
	bare := run("context-free call, 0B", bench.E14Call("bare", 0))
	dl := run("with deadline, 0B", bench.E14Call("deadline", 0))
	run("deadline + cancel + trace, 0B", bench.E14Call("full", 0))
	run("with deadline, 1KiB", bench.E14Call("deadline", 1024))
	fmt.Printf("  => attaching a deadline adds %.0f ns to a minimal call\n",
		nsPerOp(dl)-nsPerOp(bare))

	section("E15 netd pipelined throughput over loopback TCP (calls/s)")
	run("1 caller, 0B", bench.E15Throughput(1, 0))
	seq := run("1 caller, 1KiB", bench.E15Throughput(1, 1024))
	run("8 callers, 0B", bench.E15Throughput(8, 0))
	run("8 callers, 1KiB", bench.E15Throughput(8, 1024))
	run("64 callers, 0B", bench.E15Throughput(64, 0))
	pipe := run("64 callers, 1KiB", bench.E15Throughput(64, 1024))
	run("64 callers, 64KiB", bench.E15Throughput(64, 65536))
	fmt.Printf("  => pipelining 64 callers over one connection lifts throughput %.1fx over serial calls\n",
		nsPerOp(seq)/nsPerOp(pipe))

	section("E16 lock-free local door path + scalable cache manager (intra-machine)")
	run("null local door call, 1 caller", bench.E16NullLocalCall(1))
	run("null local door call, 64 callers", bench.E16NullLocalCall(64))
	run("Dup+Release round trip, 1 caller", bench.E16DupRelease(1))
	run("Dup+Release round trip, 64 callers", bench.E16DupRelease(64))
	cold := run("cached read, cold keys, 64 callers", bench.E16CachedRead(64, "cold"))
	hot := run("cached read, hot key, 64 callers", bench.E16CachedRead(64, "hot"))
	run("cached read, 1/64 invalidating, 8 callers", bench.E16CachedRead(8, "inval"))
	fmt.Printf("  => serving the hot key from cache is %.1fx cheaper than missing to the server\n",
		nsPerOp(cold)/nsPerOp(hot))

	section("E17 distributed-tracing overhead (minimal call)")
	off := run("tracing hooks, sampling off, 1 caller", bench.E17TracedCall("off", 1))
	unsampled := run("sampling on, call not picked, 1 caller", bench.E17TracedCall("unsampled", 1))
	sampled := run("every call sampled, 1 caller", bench.E17TracedCall("sampled", 1))
	run("every call sampled, 64 callers", bench.E17TracedCall("sampled", 64))
	fmt.Printf("  => head sampling adds %.0f ns to an untraced call; recording a full span set adds %.0f ns\n",
		nsPerOp(unsampled)-nsPerOp(off), nsPerOp(sampled)-nsPerOp(off))

	section("E18 same-machine transport tier (the frame stream over unix sockets)")
	run("1 caller, 0B", bench.E18SameMachine(1, 0))
	run("1 caller, 1KiB", bench.E18SameMachine(1, 1024))
	tcp64 := run("1 caller, 64KiB over TCP (E15 baseline)", bench.E15Throughput(1, 65536))
	unix64 := run("1 caller, 64KiB over the tier", bench.E18SameMachine(1, 65536))
	run("64 callers, 64KiB over the tier", bench.E18SameMachine(64, 65536))
	fmt.Printf("  => a 64KiB call over a unix socket takes %.2fx the time it takes over loopback TCP\n",
		nsPerOp(unix64)/nsPerOp(tcp64))

	section("E19 durable writes through the WAL group committer (1KiB, fsync before ack)")
	mem := run("in-memory store, 64 writers", bench.E19DurableWrite(64, 0))
	run("durable, 1 writer", bench.E19DurableWrite(1, 256))
	b1 := run("durable, 64 writers, batch cap 1", bench.E19DurableWrite(64, 1))
	b256 := run("durable, 64 writers, batch cap 256", bench.E19DurableWrite(64, 256))
	fmt.Printf("  => group commit recovers %.1fx over one-fsync-per-write; durability costs %.1fx vs memory\n",
		nsPerOp(b1)/nsPerOp(b256), nsPerOp(b256)/nsPerOp(mem))

	section("E20 server-side dispatch (0B echo; inline fast path, else a goroutine per call)")
	spawn64 := run("64 callers, every call spawned (promotion off)", bench.E20Serve("spawn", 64, 0))
	inl64 := run("64 callers, adaptive inline", bench.E20Serve("inline", 64, 0))
	run("1 caller, every call spawned (promotion off)", bench.E20Serve("spawn", 1, 0))
	run("1 caller, adaptive inline", bench.E20Serve("inline", 1, 0))
	run("100µs blocking handler, 64 callers", bench.E20Blocking(64))
	run("offered load 4x the admission bound", bench.E20Overload(4))
	fmt.Printf("  => the inline fast path serves 64-way traffic %.1fx faster than a goroutine per call\n",
		nsPerOp(spawn64)/nsPerOp(inl64))

	runMixedHoL()

	section("E22 always-on latency recording (v1 sampled-8 vs v2 always-on HDR histograms)")
	offR := run("record off, 1 caller", bench.E22RecordCost("off", 1))
	run("v1 sampled 1-in-8, 1 caller", bench.E22RecordCost("sampled8", 1))
	timed := run("clocks only (timed), 1 caller", bench.E22RecordCost("timed", 1))
	alw := run("v2 always-on, 1 caller", bench.E22RecordCost("always", 1))
	run("v2 always-on, 64 callers", bench.E22RecordCost("always", 64))
	fmt.Printf("  => the clock pair costs %.0f ns; the histogram record proper adds %.0f ns (budget 15)\n",
		nsPerOp(timed)-nsPerOp(offR), nsPerOp(alw)-nsPerOp(timed))

	if *stats {
		fmt.Println("\nper-subcontract metrics (scstats)")
		fmt.Print(scstats.Text())
	}

	fmt.Println("\ndone.")
}
