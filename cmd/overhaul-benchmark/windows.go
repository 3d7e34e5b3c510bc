package main

import (
	"math"
	"time"
)

// windows records op latencies in consecutive windows of a fixed
// number of ops, keeping each window's throughput and percentiles, and
// pools every op in all. Like hist it has one writer.
//
// The end-to-end throughput and percentiles are taken across windows,
// at the best tenth: the 10th percentile of the windows' latencies and
// the 90th of their rates. On a shared machine the program runs up to
// half again slower for stretches of a few hundred milliseconds to
// minutes while a neighbour is busy, and how much of a run such
// stretches cover changes from run to run. A slow stretch only ever
// makes windows worse, so the best tenth reads the program and not the
// neighbour, while a change to the program moves every window and so
// moves it too.
type windows struct {
	size           uint64
	cur, all       *hist
	start          time.Time
	rate, p50, p99 []float64
}

func newWindows(size int) *windows {
	return &windows{size: uint64(max(size, 1)), cur: newHist(), all: newHist()}
}

// begin starts the first window; call it right before the first op.
func (w *windows) begin() { w.start = now() }

func (w *windows) recordDur(d time.Duration) {
	w.cur.record(int64(d))
	if w.cur.n == w.size {
		w.cut()
	}
}

func (w *windows) cut() {
	t := now()
	w.add(w.cur.n, t.Sub(w.start), w.cur)
	*w.cur = hist{min: math.MaxInt64}
	w.start = t
}

// add appends a window of ops completed in elapsed, whose latencies h
// holds.
func (w *windows) add(ops uint64, elapsed time.Duration, h *hist) {
	w.rate = append(w.rate, float64(ops)/elapsed.Seconds())
	w.p50 = append(w.p50, h.quantile(0.50))
	w.p99 = append(w.p99, h.quantile(0.99))
	w.all.merge(h)
}

// finish pools the ops of an unfinished last window without making it
// a window.
func (w *windows) finish() {
	w.all.merge(w.cur)
	*w.cur = hist{min: math.MaxInt64}
}

// merge adds o's windows and ops to w.
func (w *windows) merge(o *windows) {
	w.rate = append(w.rate, o.rate...)
	w.p50 = append(w.p50, o.p50...)
	w.p99 = append(w.p99, o.p99...)
	w.all.merge(o.all)
}

// trialSet gathers what the end-to-end metrics are computed from.
type trialSet struct {
	setup, heap []float64
	win         *windows
}

func newTrialSet() *trialSet { return &trialSet{win: newWindows(1)} }

func (s *trialSet) add(setup time.Duration, heap uint64, w *windows) {
	s.setup = append(s.setup, setup.Seconds())
	s.heap = append(s.heap, float64(heap)/1e6)
	s.win.merge(w)
}

// bestShare is the share of windows at least as good as the one
// reported.
const bestShare = 0.1

// report sets the end-to-end metrics.
func (s *trialSet) report(res *result) {
	res.samples = s.win.all.count()
	res.metrics["setup_s"] = median(s.setup)
	res.metrics["ops_per_s"] = quantileOf(s.win.rate, 1-bestShare)
	res.metrics["op_p50_us"] = quantileOf(s.win.p50, bestShare) / 1e3
	res.metrics["op_p99_us"] = quantileOf(s.win.p99, bestShare) / 1e3
	res.metrics["heap_mb"] = median(s.heap)
	res.trials = map[string][]float64{"setup_s": s.setup, "heap_mb": s.heap,
		"window_ops_per_s": s.win.rate, "window_p50_ns": s.win.p50, "window_p99_ns": s.win.p99}
}
