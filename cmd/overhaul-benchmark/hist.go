package main

import (
	"math"
	"math/bits"
	"time"
)

// The benchmark times everything with its own histogram rather than
// the program's telemetry.LatencyHist, so that a change to the program
// can never move the ruler it is measured with.
const (
	subBits     = 5
	subBuckets  = 1 << subBits // sub-buckets per octave
	histBuckets = (64 - subBits + 1) * subBuckets
)

// hist is a fixed-size log-linear histogram of non-negative int64
// values (nanoseconds, for latencies). Values below 32 get exact
// buckets; every octave above is cut into 32 equal sub-buckets, so a
// bucket is never wider than 1/32 of its lower bound and a quantile
// read from it is within 1/32 of the true value. Recording never
// allocates. A hist has one writer: each goroutine records into its
// own and the runner merges them afterwards.
type hist struct {
	counts   [histBuckets]uint64
	n        uint64
	sum      float64
	min, max int64
}

func newHist() *hist { return &hist{min: math.MaxInt64} }

func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // octave, >= subBits
	shift := e - subBits
	return (shift+1)*subBuckets + int(uint64(v)>>shift) - subBuckets
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	shift := i/subBuckets - 1
	sub := i % subBuckets
	return math.Ldexp(float64(subBuckets+sub), shift), math.Ldexp(1, shift)
}

// record adds one value; negative values count as 0.
func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *hist) recordDur(d time.Duration) { h.record(int64(d)) }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.n > 0 {
		h.min = min(h.min, o.min)
		h.max = max(h.max, o.max)
	}
}

func (h *hist) count() uint64 { return h.n }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q <= 1), interpolated linearly
// by rank inside the bucket that holds it and clamped to the observed
// range. It returns 0 for an empty histogram.
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
			lo, w := bucketRange(i)
			v := lo + w*(rank-cum)/float64(c)
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}
