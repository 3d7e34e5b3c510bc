package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestLatBucketRoundTrip checks the bucket maths: every value maps to a
// bucket whose lower bound is at most the value, within ~1/16 relative
// error, and bucket indexes are monotone in the value.
func TestLatBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 5, 15, 16, 17, 31, 32, 100, 999, 1000, 4096,
		1_000_000, 999_999_999, 1_000_000_000, int64(time.Hour)}
	lastIdx := -1
	for _, v := range values {
		idx := latBucket(v)
		if idx < lastIdx {
			t.Errorf("latBucket(%d)=%d not monotone (prev %d)", v, idx, lastIdx)
		}
		lastIdx = idx
		low := latBucketLow(idx)
		if low > v {
			t.Errorf("latBucketLow(%d)=%d exceeds value %d", idx, low, v)
		}
		if v >= 16 && float64(v-low)/float64(v) > 1.0/16+1e-9 {
			t.Errorf("value %d: bucket low %d further than one sub-bucket away", v, low)
		}
		if idx >= latBucketCount {
			t.Fatalf("latBucket(%d)=%d out of range %d", v, idx, latBucketCount)
		}
	}
}

// TestLatencyHistQuantiles feeds a known distribution and checks the
// quantiles against the exact sorted answer within the histogram's
// resolution.
func TestLatencyHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h LatencyHist
	samples := make([]time.Duration, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-uniform from ~100ns to ~10ms, the range a decision path
		// under load actually spans.
		d := time.Duration(100 * (1 << uint(rng.Intn(17))))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if got, want := h.Count(), uint64(len(samples)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1] // nearest rank
		got := h.Quantile(q)
		if got > exact || float64(exact-got)/float64(exact) > 1.0/8 {
			t.Errorf("Quantile(%v) = %v, exact %v: outside resolution", q, got, exact)
		}
	}
	if got := h.Quantile(1); got != samples[len(samples)-1] {
		t.Errorf("Quantile(1) = %v, want exact max %v", got, samples[len(samples)-1])
	}
	if h.Max() != samples[len(samples)-1] {
		t.Errorf("Max = %v, want %v", h.Max(), samples[len(samples)-1])
	}

	// Where q·n is whole the nearest rank is exactly q·n: of six
	// samples, three at 50 ms and three at 3.05 s, the median is the
	// third smallest, 50 ms, not the fourth.
	var even LatencyHist
	for i := 0; i < 3; i++ {
		even.Observe(50 * time.Millisecond)
		even.Observe(3050 * time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{1.0 / 6, 50 * time.Millisecond},
		{0.5, 50 * time.Millisecond},
		{0.51, 3050 * time.Millisecond},
		{0.99, 3050 * time.Millisecond},
	} {
		if got := even.Quantile(c.q); got > c.want || got < c.want*7/8 {
			t.Errorf("even count: Quantile(%v) = %v, want the bucket holding %v", c.q, got, c.want)
		}
	}
}

// TestLatencyHistMerge checks that merging per-session histograms is
// equivalent to observing everything into one.
func TestLatencyHistMerge(t *testing.T) {
	var whole, a, b LatencyHist
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Microsecond
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	var merged LatencyHist
	merged.Merge(&a)
	merged.Merge(&b)
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d != whole %d", merged.Count(), whole.Count())
	}
	if merged.Summary() != whole.Summary() {
		t.Errorf("merged summary %+v != whole %+v", merged.Summary(), whole.Summary())
	}
}

// TestLatencyHistConcurrent hammers one histogram from many goroutines
// (the fleet ingress pattern) and checks nothing is lost.
func TestLatencyHistConcurrent(t *testing.T) {
	var h LatencyHist
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(rng.Intn(1_000_000)))
			}
		}(int64(w))
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

// TestLatencyHistNil checks the nil-handle convention.
func TestLatencyHistNil(t *testing.T) {
	var h *LatencyHist
	h.Observe(time.Second)
	h.Merge(nil)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Summary() != (LatencySummary{}) {
		t.Error("nil LatencyHist must no-op")
	}
}
