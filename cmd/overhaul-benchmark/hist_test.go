package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistQuantileWithinOneThirtySecond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	var vals []int64
	for i := 0; i < 100_000; i++ {
		// Log-uniform over 32 ns .. 1 s: every octave the histogram
		// has, with no exact-bucket region to flatter it.
		v := int64(math.Exp(rng.Float64()*math.Log(1e9/32)) * 32)
		vals = append(vals, v)
		h.record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		exact := float64(vals[int(math.Ceil(q*float64(len(vals))))-1])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 1.0/32 {
			t.Errorf("q%.3f = %.1f, exact %.1f: relative error %.4f > 1/32", q, got, exact, rel)
		}
	}
	if h.count() != uint64(len(vals)) {
		t.Errorf("count = %d, want %d", h.count(), len(vals))
	}
}

func TestHistMergeMatchesSingle(t *testing.T) {
	a, b, all := newHist(), newHist(), newHist()
	for i := int64(0); i < 10_000; i++ {
		v := i * i
		all.record(v)
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(b)
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("merged q%.2f = %f, single %f", q, a.quantile(q), all.quantile(q))
		}
	}
	if a.min != all.min || a.max != all.max || a.count() != all.count() {
		t.Errorf("merged min/max/count = %d/%d/%d, want %d/%d/%d", a.min, a.max, a.count(), all.min, all.max, all.count())
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := newHist()
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.record(v)
		v = v*7 + 3
	}); n != 0 {
		t.Errorf("record allocates %.1f times per call", n)
	}
}

func TestSpanBufferNeverGrows(t *testing.T) {
	sp, err := newSpanBuf(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sp.release(); err != nil {
			t.Error(err)
		}
	}()
	root := sp.begin(spOp, 1, -1)
	child := sp.begin(spClick, 1, root)
	sleep(time.Millisecond)
	sp.end(child)
	sp.end(root)
	for i := 0; i < 5; i++ {
		sp.end(sp.begin(spDrain, 2, -1))
	}
	if got := len(sp.recorded()); got != 4 {
		t.Errorf("recorded %d spans, want the capacity 4", got)
	}
	if got := sp.dropped.Load(); got != 3 {
		t.Errorf("dropped %d spans, want 3", got)
	}
	ts := sp.summarize()
	if ts.unattributedPct <= 0 || ts.unattributedPct >= 50 {
		t.Errorf("unattributed %.2f%% of an op that is mostly its child", ts.unattributedPct)
	}
}

func TestPacerLatenessFarBelowInterval(t *testing.T) {
	const interval, n = 2 * time.Millisecond, 200
	late := newHist()
	p := pacer{start: now()}
	for i := 0; i < n; i++ {
		late.recordDur(p.wait(time.Duration(i) * interval))
	}
	if p50 := time.Duration(late.quantile(0.5)); p50 > interval/10 {
		t.Errorf("median lateness %v, want well below the %v interval", p50, interval)
	}
}
