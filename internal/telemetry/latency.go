package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHist is the tree's one lock-free log-bucketed latency
// histogram: the recorder's histogram metrics (monitor.stamp_age) and
// cmd/overhaul-load's decision latency and generator lateness are all
// kept in one, so every reader gets p50 through p999 from the same
// buckets.
//
// Buckets are HdrHistogram-style: one octave (power of two of
// nanoseconds) per block, split into 16 linear sub-buckets, giving a
// worst-case value error of ~6% across the full range from 1 ns to
// ~73 min. Observe is a couple of shifts plus two atomic adds, safe
// for any number of concurrent recorders; there is no lock anywhere,
// so one tenant hammering its histogram cannot serialize against
// another's — the same partitioning-for-time-protection rule the fleet
// applies to all per-session state.
//
// The zero value is ready to use. A nil *LatencyHist no-ops, mirroring
// the nil-Recorder convention.
type LatencyHist struct {
	counts [latBucketCount]atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// latSubBits splits each octave into 2^latSubBits linear sub-buckets.
const latSubBits = 4

const (
	latSub = 1 << latSubBits
	// latBucketCount covers exps 0..62 (int64 nanoseconds): values
	// below latSub land in exact unit buckets, every later octave
	// contributes latSub sub-buckets.
	latBucketCount = latSub + (63-latSubBits)*latSub
)

// latBucket maps a non-negative nanosecond value to its bucket index.
func latBucket(n int64) int {
	if n < latSub {
		return int(n) // exact buckets for tiny values
	}
	exp := bits.Len64(uint64(n)) - 1 // floor log2, >= latSubBits
	mant := int((uint64(n) >> (uint(exp) - latSubBits)) & (latSub - 1))
	return (exp-latSubBits+1)*latSub + mant
}

// latBucketLow returns the inclusive lower bound of bucket idx — the
// value Quantile reports, so quantiles are always conservative (never
// above the true value by more than one sub-bucket width).
func latBucketLow(idx int) int64 {
	if idx < latSub {
		return int64(idx)
	}
	block := idx/latSub - 1
	mant := int64(idx % latSub)
	exp := uint(block + latSubBits)
	return int64(1)<<exp + mant<<(exp-latSubBits)
}

// Observe records one latency observation. Negative durations clamp to
// zero. Lock-free.
func (h *LatencyHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.counts[latBucket(n)].Add(1)
	h.sum.Add(n)
	for {
		cur := h.max.Load()
		if n <= cur || h.max.CompareAndSwap(cur, n) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *LatencyHist) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Merge adds src's observations into h — how fleet-wide latency is
// aggregated from per-session partitions without the sessions ever
// sharing a live cache line. src keeps its contents.
func (h *LatencyHist) Merge(src *LatencyHist) {
	if h == nil || src == nil {
		return
	}
	for i := range src.counts {
		if c := src.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(src.sum.Load())
	for {
		cur, sm := h.max.Load(), src.max.Load()
		if sm <= cur || h.max.CompareAndSwap(cur, sm) {
			break
		}
	}
}

// Quantile returns the q-quantile (0 < q <= 1) as the lower bound of
// the bucket holding the nearest-rank observation, the ⌈q·n⌉-th
// smallest of n; q=1 reports the exact observed maximum. Zero observations yield zero. Quantile walks the
// bucket array without stopping concurrent recorders, so under load it
// is a consistent-enough estimate, exact once recording has stopped.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(h.max.Load())
	}
	if q < 0 {
		q = 0
	}
	// 0-based nearest rank ⌈q·n⌉−1. The epsilon keeps a product that
	// should be whole but rounds just above it (0.07·100) from
	// stepping one rank too far.
	rank := uint64(math.Ceil(q*float64(total) - 1e-9))
	if rank > 0 {
		rank--
	}
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			return time.Duration(latBucketLow(i))
		}
	}
	return time.Duration(h.max.Load())
}

// Mean returns the average observed latency.
func (h *LatencyHist) Mean() time.Duration {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / total)
}

// Max returns the largest observed latency.
func (h *LatencyHist) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// LatencySummary is a point-in-time digest of a LatencyHist.
type LatencySummary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summary digests the histogram into the standard quantile set.
func (h *LatencyHist) Summary() LatencySummary {
	if h == nil {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
