// Package scstats is the per-subcontract metrics registry: every
// subcontract's client-side ops vector reports its calls, failures and
// recovery actions here, and operators read the aggregate back through the
// telemetry plane (/metrics, /statz, cmd/sctop).
//
// The design is dictated by the minimal-call path budget (≤30 ns over the
// bare singleton call, bench E14; the record itself is priced against one
// atomic add by TestRecordCostGuard):
//
//   - A Stats is a flat struct of atomic counters plus always-on HDR
//     latency histograms (hist.go). Recording a call is one atomic add for
//     the call counter, two reads of the cheap tick clock (clock.go), and
//     one striped atomic add into a log bucket. No locks, no maps, no
//     allocation, no interface dispatch and no mode branch on the hot path.
//   - Every call is measured — the 1-in-8 sampler of the v1 plane is gone.
//     Percentiles (p50/p90/p99/p999) come from the bucket counts via
//     HistSnapshot, which subtracts for windows.
//   - Latency is keyed by subcontract × op: EndCall records into a per-op
//     histogram (ops above maxOps share an overflow slot) and snapshots
//     merge the per-op histograms into the subcontract aggregate.
//   - Subcontracts intern their Stats once (For in a package var or an ops
//     constructor) rather than looking the name up per call; For takes the
//     registry lock only on first use of a name.
//
// Counters deliberately mirror the failure taxonomy in core/errors.go:
// Errors counts all failed invokes, with DeadlineExceeded and Cancelled
// broken out because they end retry loops, and Retries/Failovers/
// Reconnects counting the recovery actions the retry-safe class permits.
package scstats

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
)

// OpNone keys EndCall recordings that carry no op number; they land in
// the subcontract's unkeyed histogram rather than a per-op slot.
const OpNone = ^uint32(0)

// maxOps bounds the per-op histogram table; ops numbered maxOps or above
// share one overflow slot so a hostile op number can't grow memory.
const maxOps = 64

// Stats is one subcontract's counter block. All fields are manipulated
// atomically; a Stats must not be copied after first use.
type Stats struct {
	name string

	// Calls counts invocations started (Invoke entered), Errors those
	// that returned non-nil.
	Calls  atomic.Uint64
	Errors atomic.Uint64

	// DeadlineExceeded and Cancelled break out the context endings from
	// Errors: budget spent vs. caller abandoned.
	DeadlineExceeded atomic.Uint64
	Cancelled        atomic.Uint64

	// Recovery actions taken on retry-safe failures: Retries counts
	// re-issued calls of any kind, Failovers replica switches (replicon),
	// Reconnects re-resolutions of a broken binding (reconnectable).
	Retries    atomic.Uint64
	Failovers  atomic.Uint64
	Reconnects atomic.Uint64

	// Hits and Misses are for caching subcontracts: calls satisfied
	// locally vs. forwarded to the backing object. Coalesced counts
	// misses that piggybacked on another caller's in-flight miss for the
	// same key instead of reaching the backing object themselves (the
	// cache manager's singleflight).
	Hits      atomic.Uint64
	Misses    atomic.Uint64
	Coalesced atomic.Uint64

	// lat holds durations recorded without an op number (End,
	// RecordLatency); ops is the per-op histogram table, grown on first
	// use of an op and published atomically so readers stay lock-free.
	lat  *Hist
	ops  atomic.Pointer[[]*Hist]
	opMu sync.Mutex
}

func newStats(name string) *Stats {
	return &Stats{name: name, lat: newHist()}
}

// Name returns the subcontract name this block was interned under.
func (s *Stats) Name() string { return s.name }

// Begin records the start of an invocation and returns the value to pass
// to End/EndCall: a tick timestamp.
func (s *Stats) Begin() (start int64) {
	if s == nil {
		return 0
	}
	s.Calls.Add(1)
	return clockNow()
}

// EndCall records the completion of an invocation begun at start (the
// Begin return value) with outcome err, keyed by op (OpNone for unkeyed).
// traceID, when nonzero, becomes the exemplar of whatever latency bucket
// the call lands in — callers pass the call's trace ID, 0 when the call
// is untraced (kernel.Info.ExemplarTrace). It returns the measured
// duration in clock ticks, 0 when start is 0; netd reuses it for the
// per-peer histogram so a forwarded call reads the clock only once.
func (s *Stats) EndCall(start int64, op uint32, traceID uint64, err error) int64 {
	if s == nil {
		return 0
	}
	var d int64
	if start != 0 {
		d = clockNow() - start
		s.histOf(op).record(d, traceID)
	}
	if err != nil {
		s.Error(err)
	}
	return d
}

// End records an unkeyed completion (no op number, no exemplar).
func (s *Stats) End(start int64, err error) {
	s.EndCall(start, OpNone, 0, err)
}

// histOf returns the histogram for op, growing the table on first use.
func (s *Stats) histOf(op uint32) *Hist {
	if op == OpNone {
		return s.lat
	}
	if op > maxOps {
		op = maxOps
	}
	if t := s.ops.Load(); t != nil && int(op) < len(*t) && (*t)[op] != nil {
		return (*t)[op]
	}
	return s.growOp(op)
}

func (s *Stats) growOp(op uint32) *Hist {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	var table []*Hist
	if t := s.ops.Load(); t != nil {
		if int(op) < len(*t) && (*t)[op] != nil {
			return (*t)[op]
		}
		table = append(table, *t...)
	}
	for len(table) <= int(op) {
		table = append(table, nil)
	}
	h := newHist()
	table[op] = h
	s.ops.Store(&table)
	return h
}

// FailFast records an invocation rejected before it reached the
// subcontract's invoke path — an already-ended context caught at the stub
// layer. The attempt counts as a call and the ending is classified, but no
// latency is recorded: the rejection's cost says nothing about the
// subcontract's dispatch path.
func (s *Stats) FailFast(err error) {
	if s == nil {
		return
	}
	s.Calls.Add(1)
	s.Error(err)
}

// Error classifies and counts a failed invocation without touching the
// latency histogram. End calls it; subcontracts with bespoke accounting
// may call it directly.
func (s *Stats) Error(err error) {
	if s == nil || err == nil {
		return
	}
	s.Errors.Add(1)
	switch classify(err) {
	case endedDeadline:
		s.DeadlineExceeded.Add(1)
	case endedCancelled:
		s.Cancelled.Add(1)
	}
}

// RecordLatency adds one latency observation to the unkeyed histogram
// (callers that measured the duration themselves).
func (s *Stats) RecordLatency(d time.Duration) {
	if s == nil {
		return
	}
	s.lat.Observe(d, 0)
}

// Snapshot is a consistent-enough copy of one Stats block for exposition
// (individual counters are read atomically; the set is not a transaction).
type Snapshot struct {
	Name             string
	Calls            uint64
	Errors           uint64
	DeadlineExceeded uint64
	Cancelled        uint64
	Retries          uint64
	Failovers        uint64
	Reconnects       uint64
	Hits             uint64
	Misses           uint64
	Coalesced        uint64

	// Lat is the subcontract aggregate histogram (per-op histograms
	// merged with the unkeyed one); Ops the per-op breakdown, sparse.
	Lat HistSnapshot
	Ops []OpSnapshot
}

// OpSnapshot is one op's latency histogram within a subcontract.
type OpSnapshot struct {
	Op uint32
	// Overflow marks the shared slot holding every op ≥ maxOps.
	Overflow bool
	Lat      HistSnapshot
}

// ---------------------------------------------------------------------
// Named gauges.
//
// Alongside the per-subcontract counter blocks, the registry holds named
// gauges for subsystem state that is not a per-call outcome — the network
// door servers' liveness layer reports live connections, live export
// entries, expired leases, reclaimed references, breaker transitions and
// replayed releases through them. Like Stats, a Gauge is interned once
// and cached by its user; updates are single atomic adds.

// Gauge is one named int64 value. Monotonic event counts (leases expired,
// releases replayed) and instantaneous levels (live connections) both use
// it; the name says which it is, and the telemetry plane's exposition
// keeps a list of the monotonic ones so they surface as Prometheus
// counters rather than gauges.
type Gauge struct {
	name string
	v    atomic.Int64
	// src, when set (GaugeFunc), is a counter some other package keeps:
	// the gauge reads through to it, and v holds only Reset's offset.
	src func() int64
}

// Name returns the name the gauge was interned under.
func (g *Gauge) Name() string { return g.name }

// Add moves the gauge by d (negative to decrement a level).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	v := g.v.Load()
	if g.src != nil {
		v += g.src()
	}
	return v
}

var gauges sync.Map // string -> *Gauge

// GaugeFor interns and returns the named gauge. Callers cache the
// pointer, as with For.
func GaugeFor(name string) *Gauge {
	if v, ok := gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := gauges.LoadOrStore(name, &Gauge{name: name})
	return v.(*Gauge)
}

// GaugeFunc interns a gauge that reads through to src — a count kept by a
// package that cannot import this one (scstats sits above kernel and
// buffer). Register at init, before anything interns the name.
func GaugeFunc(name string, src func() int64) *Gauge {
	v, _ := gauges.LoadOrStore(name, &Gauge{name: name, src: src})
	return v.(*Gauge)
}

func init() {
	// The communication-buffer pool's ledger (see buffer.Put): at rest
	// gets == puts; misses are the Gets that had to allocate, drops the
	// Puts of buffers the pool does not own, large_allocs the payload-class
	// arrays allocated since start, released those Trim gave back.
	GaugeFunc("buffer.gets", func() int64 { return buffer.Stats().Gets })
	GaugeFunc("buffer.misses", func() int64 { return buffer.Stats().Misses })
	GaugeFunc("buffer.puts", func() int64 { return buffer.Stats().Puts })
	GaugeFunc("buffer.drops", func() int64 { return buffer.Stats().Drops })
	GaugeFunc("buffer.large_allocs", func() int64 { return buffer.Stats().LargeAllocs })
	GaugeFunc("buffer.released", func() int64 { return buffer.Stats().Released })
}

// GaugeSnapshot is one gauge's name and value at read time.
type GaugeSnapshot struct {
	Name  string
	Value int64
}

// AllGauges returns every interned gauge, zero-valued ones included,
// sorted by name. Exposition formats with a fixed schema (the telemetry
// plane's /metrics) use it so a gauge doesn't vanish from the scrape when
// its level returns to zero.
func AllGauges() []GaugeSnapshot {
	var out []GaugeSnapshot
	gauges.Range(func(_, v any) bool {
		g := v.(*Gauge)
		out = append(out, GaugeSnapshot{Name: g.name, Value: g.Value()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---------------------------------------------------------------------

// The process-wide registry. A sync.Map keeps For lock-free after a name's
// first interning.
var registry sync.Map // string -> *Stats

// For interns and returns the Stats block for the named subcontract.
// Callers cache the pointer (package var or ops-vector field) so the hot
// path never consults the registry.
func For(name string) *Stats {
	if v, ok := registry.Load(name); ok {
		return v.(*Stats)
	}
	v, _ := registry.LoadOrStore(name, newStats(name))
	return v.(*Stats)
}

// Reset zeroes every interned counter block, histogram, gauge and peer.
// Intended for tests and for benchmark harnesses that report per-phase
// deltas; the blocks themselves stay interned so cached pointers remain
// valid.
func Reset() {
	registry.Range(func(_, v any) bool {
		s := v.(*Stats)
		s.Calls.Store(0)
		s.Errors.Store(0)
		s.DeadlineExceeded.Store(0)
		s.Cancelled.Store(0)
		s.Retries.Store(0)
		s.Failovers.Store(0)
		s.Reconnects.Store(0)
		s.Hits.Store(0)
		s.Misses.Store(0)
		s.Coalesced.Store(0)
		s.lat.reset()
		if t := s.ops.Load(); t != nil {
			for _, h := range *t {
				if h != nil {
					h.reset()
				}
			}
		}
		return true
	})
	gauges.Range(func(_, v any) bool {
		g := v.(*Gauge)
		g.v.Store(0)
		if g.src != nil {
			g.v.Store(-g.src())
		}
		return true
	})
	hists.Range(func(_, v any) bool {
		v.(*namedHist).h.reset()
		return true
	})
	peers.Range(func(_, v any) bool {
		p := v.(*PeerStats)
		p.Calls.Store(0)
		p.Errors.Store(0)
		p.lat.reset()
		return true
	})
}
