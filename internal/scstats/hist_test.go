package scstats

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestBucketIdxBounds(t *testing.T) {
	// Exact region.
	for v := uint64(0); v < histSub; v++ {
		if got := bucketIdx(v); got != int(v) {
			t.Fatalf("bucketIdx(%d) = %d, want %d", v, got, v)
		}
	}
	// Every value must fall inside its bucket's [lo, hi) range, and
	// bucket indices must be monotone in the value.
	prev := -1
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<20 + 1<<16, 1 << 37, 1<<38 - 1, 1 << 38, 1 << 50, math.MaxUint64} {
		i := bucketIdx(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, i)
		}
		if lo, hi := bucketLo(i), bucketHi(i); v < lo || (hi != math.MaxUint64 && v >= hi) {
			t.Fatalf("value %d in bucket %d but bounds [%d,%d)", v, i, lo, hi)
		}
		if i < prev {
			t.Fatalf("bucket index went backwards at value %d", v)
		}
		prev = i
	}
	// Relative bucket width is ≤ 1/histSub in the log region.
	for i := histSub; i < histBuckets-1; i++ {
		lo, hi := bucketLo(i), bucketHi(i)
		if float64(hi-lo)/float64(lo) > 1.0/float64(histSub)+1e-9 {
			t.Fatalf("bucket %d [%d,%d) wider than %g relative", i, lo, hi, 1.0/float64(histSub))
		}
	}
	// Buckets tile the range with no gaps.
	for i := 0; i < histBuckets-1; i++ {
		if bucketHi(i) != bucketLo(i+1) {
			t.Fatalf("gap between bucket %d (hi=%d) and %d (lo=%d)", i, bucketHi(i), i+1, bucketLo(i+1))
		}
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	h := newHist()
	// A known distribution: 1000 values 1µs, 100 values 10µs, 10 values 1ms.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Microsecond, 0)
	}
	for i := 0; i < 100; i++ {
		h.Observe(10*time.Microsecond, 0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond, 0)
	}
	sn := h.histSnapshot()
	if sn.Count != 1110 {
		t.Fatalf("Count = %d, want 1110", sn.Count)
	}
	check := func(q float64, want time.Duration) {
		got := time.Duration(sn.Quantile(q))
		// The histogram guarantees ~6.25% relative error; allow 10%.
		if got < want*90/100 || got > want*110/100 {
			t.Fatalf("Quantile(%g) = %v, want ≈%v", q, got, want)
		}
	}
	check(0.50, time.Microsecond)
	check(0.90, time.Microsecond)
	check(0.95, 10*time.Microsecond)
	check(0.999, time.Millisecond)
	if m := sn.Mean(); m <= 0 {
		t.Fatalf("Mean = %d, want > 0", m)
	}
}

func TestHistSubAndMerge(t *testing.T) {
	h := newHist()
	h.Observe(time.Microsecond, 0)
	h.Observe(time.Microsecond, 0)
	prev := h.histSnapshot()
	h.Observe(time.Microsecond, 0)
	h.Observe(time.Millisecond, 0)
	cur := h.histSnapshot()

	d := cur.Sub(prev)
	if d.Count != 2 {
		t.Fatalf("delta Count = %d, want 2", d.Count)
	}
	// The delta must contain the new millisecond bucket.
	foundMs := false
	for _, b := range d.Buckets {
		if b.Lo <= int64(time.Millisecond) && int64(time.Millisecond) < b.Hi && b.Count == 1 {
			foundMs = true
		}
	}
	if !foundMs {
		t.Fatalf("delta missing the 1ms observation: %+v", d.Buckets)
	}

	// Merging, as Take sums a subcontract's op histograms, gives the
	// counts of both.
	other := newHist()
	other.Observe(time.Second, 0)
	var counts [histBuckets]uint64
	sum(&counts, h, []*Hist{nil, other})
	if m := snapshotOf(&counts, nil); m.Count != cur.Count+1 || len(m.Buckets) != len(cur.Buckets)+1 {
		t.Fatalf("merge = %+v, want %d calls in %d buckets", m, cur.Count+1, len(cur.Buckets)+1)
	}
	// Sub of identical snapshots is empty.
	if e := cur.Sub(cur); e.Count != 0 || len(e.Buckets) != 0 {
		t.Fatalf("self-delta not empty: %+v", e)
	}
}

func TestHistExemplar(t *testing.T) {
	h := newHist()
	h.Observe(time.Microsecond, 0) // untraced: no exemplar
	sn := h.histSnapshot()
	for _, b := range sn.Buckets {
		if b.ExTrace != 0 {
			t.Fatalf("untraced record produced exemplar %x", b.ExTrace)
		}
	}
	h.Observe(time.Microsecond, 0xabc)
	h.Observe(time.Microsecond, 0xdef) // last writer wins
	sn = h.histSnapshot()
	var got uint64
	for _, b := range sn.Buckets {
		if b.ExTrace != 0 {
			got = b.ExTrace
			if b.ExNs <= 0 {
				t.Fatalf("exemplar with no duration: %+v", b)
			}
		}
	}
	if got != 0xdef {
		t.Fatalf("exemplar = %x, want def (last writer)", got)
	}
}

// TestHistConcurrent exercises record/snapshot/sub under the race
// detector: recorders with and without exemplars racing a reader.
func TestHistConcurrent(t *testing.T) {
	h := newHist()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var acc HistSnapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := h.histSnapshot()
			_ = sn.Sub(acc)
			acc = sn
			_ = sn.Quantile(0.99)
		}
	}()
	var rec sync.WaitGroup
	for g := 0; g < 4; g++ {
		rec.Add(1)
		go func(g int) {
			defer rec.Done()
			for i := 0; i < 2000; i++ {
				h.record(int64(i%4096), uint64(g*10000+i))
			}
		}(g)
	}
	rec.Wait()
	close(stop)
	reader.Wait()
	if sn := h.histSnapshot(); sn.Count != 8000 {
		t.Fatalf("Count = %d, want 8000", sn.Count)
	}
}

// TestRecordAllocs is the 0-alloc guard on the record path.
func TestRecordAllocs(t *testing.T) {
	Reset()
	s := For("allocguard")
	s.EndCall(s.Begin(), 1, 0, nil) // warm the op-1 table slot
	for _, err := range []error{nil, kernel.ErrDeadlineExceeded, errSentinel} {
		if n := testing.AllocsPerRun(200, func() {
			s.EndCall(s.Begin(), 1, 0xbeef, err)
		}); n != 0 {
			t.Fatalf("Begin/EndCall(err %v) allocates %v per call, want 0", err, n)
		}
	}
	h := HistFor("allocguard.hist")
	if n := testing.AllocsPerRun(200, func() {
		h.ObserveSince(h.Start(), 0)
	}); n != 0 {
		t.Fatalf("named hist record allocates %v per call, want 0", n)
	}
	p := PeerFor("alloc:guard")
	if n := testing.AllocsPerRun(200, func() {
		p.Record(100, 0, nil)
	}); n != 0 {
		t.Fatalf("peer record allocates %v per call, want 0", n)
	}
}

func TestClockSanity(t *testing.T) {
	a := clockNow()
	time.Sleep(2 * time.Millisecond)
	b := clockNow()
	if b <= a {
		t.Fatalf("clock not monotonic across sleep: %d then %d", a, b)
	}
	elapsed := ticksToNs(b - a)
	if elapsed < int64(time.Millisecond) || elapsed > int64(200*time.Millisecond) {
		t.Fatalf("2ms sleep measured as %v", time.Duration(elapsed))
	}
	// Round-trip: ns→ticks→ns within 1%.
	ns := int64(time.Millisecond)
	rt := ticksToNs(nsToTicks(ns))
	if diff := rt - ns; diff < -ns/100 || diff > ns/100 {
		t.Fatalf("round trip of 1ms = %v", time.Duration(rt))
	}
}

func TestPeerStats(t *testing.T) {
	Reset()
	p := PeerFor("host:1234")
	if p != PeerFor("host:1234") {
		t.Fatal("PeerFor interned two blocks for one address")
	}
	p.Record(nsToTicks(int64(time.Millisecond)), 0x42, nil)
	p.Record(0, 0, errKindOf())
	found := false
	for _, sn := range Take().Peers {
		if sn.Addr != "host:1234" {
			continue
		}
		found = true
		if sn.Calls != 2 || sn.Errors != 1 {
			t.Fatalf("calls=%d errors=%d, want 2/1", sn.Calls, sn.Errors)
		}
		if sn.Lat.Count != 1 {
			t.Fatalf("lat count = %d, want 1 (zero-duration call not recorded)", sn.Lat.Count)
		}
	}
	if !found {
		t.Fatal("peer missing from snapshots")
	}
	var nilP *PeerStats
	nilP.Record(1, 0, nil)
}

func errKindOf() error { return errSentinel }

var errSentinel = &sentinelErr{}

type sentinelErr struct{}

func (*sentinelErr) Error() string { return "sentinel" }

// histSnapshot is h's live snapshot.
func (h *Hist) histSnapshot() HistSnapshot {
	var counts [histBuckets]uint64
	h.addTo(&counts)
	return snapshotOf(&counts, h.exemplar)
}
