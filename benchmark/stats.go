package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// A hist is the load generator's own latency histogram: log-linear, 64
// sub-buckets per octave, so a bucket is at most 1.6 % wide and a
// quantile interpolated inside it is good to a fraction of that. Values
// are nanoseconds. Recording is one atomic add, so all callers of a
// workload share one hist per slice without a lock.
//
// It is deliberately not scstats.Hist: the benchmark must not measure the
// program with the program's own ruler (6 % buckets, TSC ticks), and the
// two are compared in the budget rows.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 36 // values ≥ 2^36 ns (≈ 69 s) land in the last bucket
	histBuckets = histSub + (histMaxExp-histSubBits)*histSub
)

type hist struct {
	counts [histBuckets]atomic.Uint32
	n      atomic.Uint64
	sum    atomic.Uint64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		return histBuckets - 1
	}
	e := uint(bits.Len64(v) - 1)
	return int(e-histSubBits+1)<<histSubBits + int((v>>(e-histSubBits))&(histSub-1))
}

// histBounds returns bucket i's [lo, hi) in nanoseconds.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	o := uint(i>>histSubBits) - 1
	m := uint64(i & (histSub - 1))
	return float64((histSub + m) << o), float64((histSub + m + 1) << o)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))].Add(1)
	h.n.Add(1)
	h.sum.Add(uint64(ns))
}

// A dist is a plain copy of one or more hists, for merging and reading.
type dist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

func (d *dist) add(h *hist) {
	for i := range h.counts {
		d.counts[i] += uint64(h.counts[i].Load())
	}
	d.n += h.n.Load()
	d.sum += h.sum.Load()
}

func (d *dist) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.n)
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the containing bucket; 0 for an empty dist.
func (d *dist) quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	rank := q * float64(d.n)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (rank-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance driver uses for the spread of ten runs.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// steadiness figure the bounds are derived from.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// ---------------------------------------------------------------------
// /statz bucket arithmetic. The server reports each always-on histogram
// as sparse [lo_ns, hi_ns, count] triples (hi −1 = unbounded) of totals
// since start; a window is the bucket-wise difference of two scrapes.

type bucket [3]int64

// subBuckets returns cur − prev, matching buckets by their bounds.
// Counts are monotonic per bucket, so the difference is a histogram.
func subBuckets(cur, prev []bucket) []bucket {
	old := make(map[[2]int64]int64, len(prev))
	for _, b := range prev {
		old[[2]int64{b[0], b[1]}] = b[2]
	}
	var out []bucket
	for _, b := range cur {
		if c := b[2] - old[[2]int64{b[0], b[1]}]; c > 0 {
			out = append(out, bucket{b[0], b[1], c})
		}
	}
	return out
}

func bucketCount(bs []bucket) (n int64) {
	for _, b := range bs {
		n += b[2]
	}
	return n
}

// bucketSum estimates Σ value in nanoseconds from bucket midpoints (the
// unbounded bucket is credited at its lower bound), as scstats does.
func bucketSum(bs []bucket) (sum float64) {
	for _, b := range bs {
		mid := float64(b[0])
		if b[1] >= 0 {
			mid = float64(b[0]) + float64(b[1]-b[0])/2
		}
		sum += mid * float64(b[2])
	}
	return sum
}

// bucketQuantile is the q-quantile in nanoseconds of ascending buckets.
func bucketQuantile(bs []bucket, q float64) float64 {
	n := bucketCount(bs)
	if n == 0 {
		return 0
	}
	rank := math.Max(1, q*float64(n))
	var cum float64
	for _, b := range bs {
		c := float64(b[2])
		if cum+c >= rank {
			if b[1] < 0 {
				return float64(b[0])
			}
			return float64(b[0]) + (rank-cum)/c*float64(b[1]-b[0])
		}
		cum += c
	}
	return float64(bs[len(bs)-1][0])
}
