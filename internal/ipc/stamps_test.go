package ipc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
)

// TestStampSlotConcurrentAdoptKeepsMaximum: N goroutines adopting
// interleaved stamps leave the newest one installed, whatever the
// order the CAS-max loop saw them in, and no Adopt is ever undone: once
// Adopt(t) returns, the slot reads at least t. Run under -race, this is
// also the cell's data-race check.
func TestStampSlotConcurrentAdoptKeepsMaximum(t *testing.T) {
	const (
		workers = 8
		perWork = 2000
	)
	var s StampSlot
	var regressions atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				// Worker w adopts offsets w, w+workers, ...: every
				// offset in [0, workers*perWork) exactly once.
				off := time.Duration(i*workers + w)
				ts := clock.Epoch.Add(off)
				s.Adopt(ts, probe.SpanContext{Trace: 1, Span: probe.SpanID(off + 1)})
				if got, _ := s.Stamp(); got.Before(ts) {
					regressions.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if n := regressions.Load(); n != 0 {
		t.Errorf("%d reads after Adopt(t) returned saw a stamp older than t", n)
	}

	want := clock.Epoch.Add(time.Duration(workers*perWork - 1))
	got, ctx := s.Stamp()
	if !got.Equal(want) {
		t.Fatalf("stamp = %v, want the maximum %v", got, want)
	}
	// A racing loser may store its span after the winner's, so the
	// span is only guaranteed to be one that some Adopt delivered.
	if !ctx.Valid() {
		t.Fatalf("span = %+v, want one of the adopted spans", ctx)
	}
}

// TestStampSlotNewestWins: an older or equal stamp never replaces the
// installed one, nor its span.
func TestStampSlotNewestWins(t *testing.T) {
	var s StampSlot
	newer := clock.Epoch.Add(time.Second)
	span := probe.SpanContext{Trace: 2, Span: 20}
	s.Adopt(newer, span)
	s.Adopt(clock.Epoch, probe.SpanContext{Trace: 3, Span: 30})
	s.Adopt(newer, probe.SpanContext{Trace: 4, Span: 40})
	if got, ctx := s.Stamp(); !got.Equal(newer) || ctx != span {
		t.Fatalf("Stamp = (%v, %+v), want (%v, %+v)", got, ctx, newer, span)
	}
}

// TestStampSlotZeroNeverInstalls: the zero time is "no interaction",
// so adopting it is a no-op on a fresh slot and on a stamped one.
func TestStampSlotZeroNeverInstalls(t *testing.T) {
	var s StampSlot
	s.Adopt(time.Time{}, probe.SpanContext{Trace: 5, Span: 50})
	if got, ctx := s.Stamp(); !got.IsZero() || ctx != (probe.SpanContext{}) {
		t.Fatalf("fresh slot after zero Adopt = (%v, %+v), want empty", got, ctx)
	}
	stamp := clock.Epoch.Add(time.Second)
	span := probe.SpanContext{Trace: 6, Span: 60}
	s.Adopt(stamp, span)
	s.Adopt(time.Time{}, probe.SpanContext{})
	if got, ctx := s.Stamp(); !got.Equal(stamp) || ctx != span {
		t.Fatalf("stamped slot after zero Adopt = (%v, %+v), want (%v, %+v)", got, ctx, stamp, span)
	}
}

// TestStampSlotInheritAndReset: Inherit copies the stamp and its span
// as one unit (fork-time P1), and Reset clears both.
func TestStampSlotInheritAndReset(t *testing.T) {
	var parent, child StampSlot
	stamp := clock.Epoch.Add(time.Second)
	span := probe.SpanContext{Trace: 7, Span: 70}
	parent.Adopt(stamp, span)

	child.Inherit(&parent)
	if got, ctx := child.Stamp(); !got.Equal(stamp) || ctx != span {
		t.Fatalf("inherited = (%v, %+v), want (%v, %+v)", got, ctx, stamp, span)
	}

	child.Reset()
	if got, ctx := child.Stamp(); !got.IsZero() || ctx != (probe.SpanContext{}) {
		t.Fatalf("after Reset = (%v, %+v), want empty", got, ctx)
	}
	// Reset is the child's own: the parent keeps its stamp and span.
	if got, ctx := parent.Stamp(); !got.Equal(stamp) || ctx != span {
		t.Fatalf("parent after child Reset = (%v, %+v), want (%v, %+v)", got, ctx, stamp, span)
	}
	// A reset slot adopts again from scratch, even an older stamp.
	child.Adopt(clock.Epoch, span)
	if got, _ := child.Stamp(); !got.Equal(clock.Epoch) {
		t.Fatalf("reset slot adopted %v, want %v", got, clock.Epoch)
	}
}
