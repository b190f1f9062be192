package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: 128 linear
// sub-buckets per power of two (0.8% wide), interpolated inside the
// bucket on read-out. A 20 s window at 500k txn/s would need 80 MB of
// raw samples per caller; this is 36 KB, and interpolation keeps the
// quantiles continuous so two runs never read the same to the digit.
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histSubBits = 7
	histOctaves = 36 // values up to 2^(36+7-1) ns ≈ 73 min
	histBuckets = histOctaves << histSubBits
)

func histIndex(ns int64) int {
	if ns < 1<<histSubBits {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - histSubBits // octave ≥ 1
	if e >= histOctaves {
		return histBuckets - 1
	}
	return e<<histSubBits | int(ns>>(e-1))&(1<<histSubBits-1)
}

// histBounds returns bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi float64) {
	e, sub := i>>histSubBits, i&(1<<histSubBits-1)
	if e == 0 {
		return float64(sub), float64(sub + 1)
	}
	w := int64(1) << (e - 1)
	l := (int64(1<<histSubBits) + int64(sub)) * w
	return float64(l), float64(l + w)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (q in [0,1]) in nanoseconds, 0 on an
// empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// percentileLadder is the set of percentiles the benchmark will report
// as a tail; topPercentile picks from it. oneIn is the tail's size as a
// share of the samples (p99 leaves one in 100 beyond it), kept as an
// integer so the ten-sample rule is exact.
var percentileLadder = []struct {
	pct   float64
	oneIn int64
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}, {99.999, 100000}}

// topPercentile returns the highest ladder percentile that still has at
// least ten of n samples beyond it (choosing-metrics §1), 0 when even
// the median does not.
func topPercentile(n int64) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n >= 10*p.oneIn {
			best = p.pct
		}
	}
	return best
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (exclusive method) computes them — the
// driver's spread rule is stated in those terms.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return median(v), median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
