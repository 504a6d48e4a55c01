package scstats

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Always-on latency histograms.
//
// A Hist is an HDR-style log-bucketed histogram: log2 major buckets split
// into 16 sub-buckets each (histSubBits = 4), giving ≤ 1/16 ≈ 6.25%
// relative bucket width across the whole range, with values below 16
// counted exactly. Values are raw clock ticks (see clock.go); only
// snapshots convert to nanoseconds.
//
// record is the hot path and is one atomic add on a striped shard — no
// locks, no allocation, no clock read (the caller supplies the duration).
// Shards are picked by hashing the goroutine's stack address, the same
// trick netd uses for connection striping: goroutines scatter across
// shards without any per-CPU API, and a wrong guess costs contention, not
// correctness. Snapshots sum the shards.
//
// Each bucket additionally remembers the trace ID of the last traced call
// that landed in it (the exemplar): a p999 bucket in /metrics links
// straight to a /traces/{id} waterfall. Exemplars are last-writer-wins in
// two plain atomic words — under heavy contention a bucket's (trace,
// value) pair can be torn across two calls, which is harmless for a
// debugging breadcrumb and keeps the record path free.

const (
	histSubBits = 4
	histSub     = 1 << histSubBits // sub-buckets per octave; values < histSub are exact
	histMaxExp  = 38               // ticks ≥ 2^histMaxExp land in the catch-all bucket

	// Bucket layout: [0,histSub) exact, then (histMaxExp-histSubBits)
	// octaves of histSub sub-buckets, then one unbounded catch-all.
	histBuckets = histSub + (histMaxExp-histSubBits)*histSub + 1
)

// bucketIdx maps a tick count to its bucket.
func bucketIdx(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		return histBuckets - 1
	}
	e := uint(bits.Len64(v) - 1)
	return int((e-histSubBits)<<histSubBits) + histSub + int((v>>(e-histSubBits))&(histSub-1))
}

// bucketLo returns the inclusive lower bound of bucket i, in ticks.
func bucketLo(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	if i >= histBuckets-1 {
		return 1 << histMaxExp
	}
	j := i - histSub
	o := uint(j >> histSubBits)
	m := uint64(j & (histSub - 1))
	return (histSub + m) << o
}

// bucketHi returns the exclusive upper bound of bucket i, in ticks; the
// catch-all has no upper bound and reports math.MaxUint64.
func bucketHi(i int) uint64 {
	if i >= histBuckets-1 {
		return math.MaxUint64
	}
	if i < histSub {
		return uint64(i) + 1
	}
	j := i - histSub
	o := uint(j >> histSubBits)
	m := uint64(j & (histSub - 1))
	return (histSub + m + 1) << o
}

// histShards is the stripe count: enough to spread recorders across
// cores, capped so snapshot cost and footprint stay bounded.
var histShards = func() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}()

// shardIdx hashes the caller's stack address to a stripe.
func shardIdx() int {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return int((p>>10 ^ p>>20) & uintptr(histShards-1))
}

type histShard struct {
	counts [histBuckets]atomic.Uint64
	_      [64]byte // keep adjacent shards off one another's cache lines
}

// Hist is one always-on latency histogram.
type Hist struct {
	shards []*histShard
	// Exemplars are unsharded: one (trace, ticks) pair per bucket,
	// last-writer-wins. exTick[i] pairs with exTrace[i] best-effort.
	exTrace []atomic.Uint64
	exTick  []atomic.Uint64
}

func newHist() *Hist {
	h := &Hist{
		shards:  make([]*histShard, histShards),
		exTrace: make([]atomic.Uint64, histBuckets),
		exTick:  make([]atomic.Uint64, histBuckets),
	}
	for i := range h.shards {
		h.shards[i] = new(histShard)
	}
	return h
}

// record adds one duration (in ticks) to the histogram, remembering
// traceID as the bucket's exemplar when nonzero.
func (h *Hist) record(d int64, traceID uint64) {
	if d < 0 {
		d = 0 // TSC skew across a core migration can go slightly backwards
	}
	b := bucketIdx(uint64(d))
	h.shards[shardIdx()].counts[b].Add(1)
	if traceID != 0 {
		h.exTick[b].Store(uint64(d))
		h.exTrace[b].Store(traceID)
	}
}

// Observe records a duration measured by the caller against the wall
// clock (tests and non-hot paths; hot paths record ticks directly).
func (h *Hist) Observe(d time.Duration, traceID uint64) {
	if h == nil {
		return
	}
	h.record(nsToTicks(int64(d)), traceID)
}

// Start returns a tick timestamp for a later ObserveSince.
func (h *Hist) Start() int64 { return clockNow() }

// ObserveSince records the time elapsed since start (a Start return).
func (h *Hist) ObserveSince(start int64, traceID uint64) {
	if h == nil || start == 0 {
		return
	}
	h.record(clockNow()-start, traceID)
}

// reset zeroes counts and exemplars (tests and bench phase boundaries).
func (h *Hist) reset() {
	for _, sh := range h.shards {
		for i := range sh.counts {
			sh.counts[i].Store(0)
		}
	}
	for i := range h.exTrace {
		h.exTrace[i].Store(0)
		h.exTick[i].Store(0)
	}
}

// ---------------------------------------------------------------------
// Snapshots.

// HistBucket is one occupied bucket of a snapshot, bounds in nanoseconds
// ([Lo, Hi); the catch-all bucket has Hi = math.MaxInt64). ExTrace, when
// nonzero, is the trace ID of the last traced call recorded in the
// bucket and ExNs its duration.
type HistBucket struct {
	Lo      int64
	Hi      int64
	Count   uint64
	ExTrace uint64
	ExNs    int64
}

// appendBucket appends b, or folds it into the last bucket when both end at
// the same nanosecond: below 1 ns a tick two small buckets can, and Sub,
// which matches buckets by their bounds, must never see such a pair.
func appendBucket(bs []HistBucket, b HistBucket) []HistBucket {
	if n := len(bs); n > 0 && bs[n-1].Hi == b.Hi {
		bs[n-1].Count += b.Count
		if bs[n-1].ExTrace == 0 {
			bs[n-1].ExTrace, bs[n-1].ExNs = b.ExTrace, b.ExNs
		}
		return bs
	}
	return append(bs, b)
}

// HistSnapshot is a point-in-time copy of a Hist with bounds converted to
// nanoseconds. Buckets are ascending and sparse (zero-count buckets
// omitted). Snapshots from one process share bucket bounds (the tick
// scale is frozen), so Sub matches buckets exactly.
type HistSnapshot struct {
	Count   uint64
	SumNs   int64 // estimated from bucket midpoints
	Buckets []HistBucket
}

// snapshotOf converts counts, summed in ticks, to a snapshot; ex, when not
// nil, gives bucket i's exemplar as (trace, ticks).
func snapshotOf(counts *[histBuckets]uint64, ex func(i int) (uint64, uint64)) HistSnapshot {
	var sn HistSnapshot
	for i, c := range counts {
		if c == 0 {
			continue
		}
		b := HistBucket{Lo: boundNs(bucketLo(i)), Hi: boundNs(bucketHi(i)), Count: c}
		if ex != nil {
			if tr, tk := ex(i); tr != 0 {
				b.ExTrace, b.ExNs = tr, ticksToNs(int64(tk))
			}
		}
		sn.Buckets = appendBucket(sn.Buckets, b)
		sn.Count += c
		sn.SumNs += int64(c) * midNs(b.Lo, b.Hi)
	}
	return sn
}

// exemplar is bucket i's exemplar as (trace, ticks), trace 0 for none.
func (h *Hist) exemplar(i int) (uint64, uint64) { return h.exTrace[i].Load(), h.exTick[i].Load() }

// addTo sums the shards into counts.
func (h *Hist) addTo(counts *[histBuckets]uint64) {
	for _, sh := range h.shards {
		for i := range sh.counts {
			counts[i] += sh.counts[i].Load()
		}
	}
}

// boundNs converts a tick bound to a nanosecond bound, preserving the
// unbounded sentinel.
func boundNs(ticks uint64) int64 {
	if ticks == math.MaxUint64 {
		return math.MaxInt64
	}
	return ticksToNs(int64(ticks))
}

// midNs is the midpoint estimate used for sums and means; the unbounded
// catch-all is credited at its lower bound.
func midNs(lo, hi int64) int64 {
	if hi == math.MaxInt64 {
		return lo
	}
	return lo + (hi-lo)/2
}

// Mean returns the estimated mean in nanoseconds.
func (s HistSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / int64(s.Count)
}

// Quantile returns the estimated q-quantile (0 ≤ q ≤ 1) in nanoseconds,
// interpolating linearly within the containing bucket.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		if cum+b.Count >= rank {
			if b.Hi == math.MaxInt64 {
				return b.Lo
			}
			frac := float64(rank-cum) / float64(b.Count)
			return b.Lo + int64(frac*float64(b.Hi-b.Lo))
		}
		cum += b.Count
	}
	last := s.Buckets[len(s.Buckets)-1]
	return midNs(last.Lo, last.Hi)
}

// Sub returns the interval histogram s − prev (counts are monotonic per
// bucket, so the difference is itself a histogram). Exemplars carry over
// from the newer snapshot. Used for windowed /statz deltas.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	var out HistSnapshot
	j := 0
	for _, b := range s.Buckets {
		for j < len(prev.Buckets) && prev.Buckets[j].Hi < b.Hi {
			j++ // bucket drained to zero can't happen (monotonic), but stay robust
		}
		if j < len(prev.Buckets) && prev.Buckets[j].Hi == b.Hi {
			if prev.Buckets[j].Count >= b.Count {
				continue
			}
			b.Count -= prev.Buckets[j].Count
		}
		out.Buckets = append(out.Buckets, b)
		out.Count += b.Count
		out.SumNs += int64(b.Count) * midNs(b.Lo, b.Hi)
	}
	return out
}

// ---------------------------------------------------------------------
// Named histograms.
//
// Subsystems with a latency that is not a subcontract call — dispatch
// queue delay, cache miss fill — intern a named Hist once and record into
// it directly. The telemetry plane exposes each as <name>_seconds.

var hists sync.Map // string -> *namedHist

type namedHist struct {
	name string
	h    *Hist
}

// HistFor interns and returns the named histogram. Callers cache the
// pointer, as with For.
func HistFor(name string) *Hist {
	if v, ok := hists.Load(name); ok {
		return v.(*namedHist).h
	}
	v, _ := hists.LoadOrStore(name, &namedHist{name: name, h: newHist()})
	return v.(*namedHist).h
}

// NamedHistSnapshot is one named histogram's snapshot.
type NamedHistSnapshot struct {
	Name string
	Hist HistSnapshot
}

// ---------------------------------------------------------------------
// Per-peer RED.
//
// netd holds a PeerStats per remote address it forwards calls to, reports
// their rate, errors and duration — the RED triad — against it, and
// releases it with the address's record. The cached pointer costs the
// forward path one counter add and one histogram record, no lookup.

// PeerStats is the RED block for one remote peer.
type PeerStats struct {
	addr   string
	Calls  atomic.Uint64
	Errors atomic.Uint64
	lat    *Hist
	holds  int // PeerFor holds not yet released
}

// Addr returns the peer address this block was interned under.
func (p *PeerStats) Addr() string { return p.addr }

// Record counts one forwarded call: d is the measured duration in ticks
// (0 when the call path measured nothing — the call still counts),
// traceID the exemplar candidate, err the outcome.
func (p *PeerStats) Record(d int64, traceID uint64, err error) {
	if p == nil {
		return
	}
	p.Calls.Add(1)
	if err != nil {
		p.Errors.Add(1)
	}
	if d > 0 {
		p.lat.record(d, traceID)
	}
}

var (
	peers   sync.Map   // string -> *PeerStats
	peersMu sync.Mutex // guards holds, and listing and unlisting by them
)

// PeerFor interns and returns the RED block for a peer address, taking a
// hold on it: it stays listed until every hold is released.
func PeerFor(addr string) *PeerStats {
	peersMu.Lock()
	defer peersMu.Unlock()
	v, ok := peers.Load(addr)
	if !ok {
		v = &PeerStats{addr: addr, lat: newHist()}
		peers.Store(addr, v)
	}
	v.(*PeerStats).holds++
	return v.(*PeerStats)
}

// Release gives back a hold PeerFor took; the last one unlists the block.
func (p *PeerStats) Release() {
	if p != nil {
		peersMu.Lock()
		defer peersMu.Unlock()
		if p.holds--; p.holds == 0 {
			peers.CompareAndDelete(p.addr, p)
		}
	}
}

// PeerSnapshot is one peer's RED snapshot.
type PeerSnapshot struct {
	Addr   string
	Calls  uint64
	Errors uint64
	Lat    HistSnapshot
}
