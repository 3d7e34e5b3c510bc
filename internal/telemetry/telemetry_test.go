package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"overhaul/internal/clock"
)

// TestNilRecorderIsSafe exercises every public method on a nil
// recorder and nil span: the disabled state must be a total no-op.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Add("m", "c", "", 1)
	r.Gauge("m", "g", "", 7)
	r.Observe("m", "h", "", time.Millisecond)
	if got := r.CounterValue("m", "c", ""); got != 0 {
		t.Fatalf("CounterValue on nil = %d", got)
	}
	s := r.StartSpan(SpanContext{}, "m", "op")
	if s != nil {
		t.Fatal("StartSpan on nil recorder returned non-nil span")
	}
	s.Annotate("k", "v")
	s.End()
	if s.Context().Valid() {
		t.Fatal("nil span has valid context")
	}
	r.RecordEvent(SpanContext{}, "m", "k", "d")
	r.TripFlight(SpanContext{}, "m", "reason")
	if r.Spans() != nil || r.FlightEvents() != nil || r.FlightDumps() != nil {
		t.Fatal("nil recorder returned non-nil data")
	}
	if _, ok := r.LastFlightDump(); ok {
		t.Fatal("nil recorder has a dump")
	}
	if r.MetricsSnapshot() != nil {
		t.Fatal("nil recorder returned metrics")
	}
	if snap := r.Snapshot(); len(snap.Metrics) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil recorder snapshot not empty")
	}
	if r.Elapsed(time.Time{}) != 0 {
		t.Fatal("nil recorder Elapsed != 0")
	}
}

func TestMetrics(t *testing.T) {
	clk := clock.NewSimulated()
	r := New(clk)
	r.Add("monitor", "decisions", "verdict=grant", 1)
	r.Add("monitor", "decisions", "verdict=grant", 2)
	r.Add("monitor", "decisions", "verdict=deny", 1)
	if got := r.CounterValue("monitor", "decisions", "verdict=grant"); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.Gauge("netlink", "conns", "", 2)
	r.Gauge("netlink", "conns", "", 1)
	r.Observe("monitor", "decide_latency", "", 5*time.Microsecond)
	r.Observe("monitor", "decide_latency", "", 2*time.Second) // overflow
	r.Observe("monitor", "decide_latency", "", -time.Second)  // clamps to 0

	points := r.MetricsSnapshot()
	if len(points) != 4 {
		t.Fatalf("snapshot has %d points, want 4", len(points))
	}
	// Sorted by subsystem/name/labels: monitor.decide_latency first.
	h := points[0]
	if h.Kind != "histogram" || h.Count != 3 {
		t.Fatalf("histogram point = %+v", h)
	}
	if h.Buckets[0] != 2 || h.Buckets[len(h.Buckets)-1] != 1 {
		t.Fatalf("bucket spread = %v", h.Buckets)
	}
	for _, p := range points {
		if !p.Updated.Equal(clock.Epoch) {
			t.Fatalf("metric %s.%s not stamped on virtual clock: %v", p.Subsystem, p.Name, p.Updated)
		}
	}
	g := points[3]
	if g.Kind != "gauge" || g.Value != 1 {
		t.Fatalf("gauge point = %+v", g)
	}
}

func TestSpansDeterministicIDs(t *testing.T) {
	clk := clock.NewSimulated()
	r := New(clk)
	root := r.StartSpan(SpanContext{}, "xserver", "input")
	clk.Advance(time.Millisecond)
	child := r.StartSpan(root.Context(), "netlink", "notify")
	child.Annotate("pid", "41")
	child.End()
	root.End()
	root.End() // idempotent

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Trace != 1 || spans[0].ID != 1 || spans[0].Parent != 0 {
		t.Fatalf("root record = %+v", spans[0])
	}
	if spans[1].Trace != 1 || spans[1].ID != 2 || spans[1].Parent != 1 {
		t.Fatalf("child record = %+v", spans[1])
	}
	if !spans[1].Start.Equal(clock.Epoch.Add(time.Millisecond)) {
		t.Fatalf("child start = %v", spans[1].Start)
	}
	if !spans[0].Ended || !spans[0].End.Equal(clock.Epoch.Add(time.Millisecond)) {
		t.Fatalf("root end = %+v", spans[0])
	}
	if tr, ok := r.TraceOf(2); !ok || tr != 1 {
		t.Fatalf("TraceOf(2) = %d, %v", tr, ok)
	}
	if got := r.TraceSpans(1); len(got) != 2 {
		t.Fatalf("TraceSpans = %d spans", len(got))
	}
	// A second interaction starts a new trace.
	other := r.StartSpan(SpanContext{}, "xserver", "input")
	defer other.End()
	if other.Context().Trace != 2 {
		t.Fatalf("second trace id = %d", other.Context().Trace)
	}
	if subs := Subsystems(spans); len(subs) != 2 || subs[0] != "netlink" || subs[1] != "xserver" {
		t.Fatalf("Subsystems = %v", subs)
	}
}

func TestSpanEviction(t *testing.T) {
	r := NewWithOptions(clock.NewSimulated(), Options{SpanCapacity: 3})
	for i := 0; i < 5; i++ {
		s := r.StartSpan(SpanContext{}, "m", "op")
		s.End()
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	if spans[0].ID != 3 || spans[2].ID != 5 {
		t.Fatalf("retained IDs %d..%d, want 3..5", spans[0].ID, spans[2].ID)
	}
	if r.SpansDropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.SpansDropped())
	}
}

func TestFlightRingAndDumps(t *testing.T) {
	clk := clock.NewSimulated()
	r := NewWithOptions(clk, Options{FlightCapacity: 4, DumpCapacity: 2})
	for i := 0; i < 6; i++ {
		r.RecordEvent(SpanContext{}, "kernel", "decision", "grant mic")
		clk.Advance(time.Millisecond)
	}
	events := r.FlightEvents()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	if events[0].Seq != 3 || events[3].Seq != 6 {
		t.Fatalf("ring seqs %d..%d, want 3..6", events[0].Seq, events[3].Seq)
	}

	r.TripFlight(SpanContext{Trace: 9, Span: 9}, "monitor", "protection degraded: channel down")
	dump, ok := r.LastFlightDump()
	if !ok {
		t.Fatal("no dump after trip")
	}
	last := dump.Events[len(dump.Events)-1]
	if last.Kind != "trip" || !strings.Contains(last.Detail, "protection degraded") {
		t.Fatalf("last dump event = %+v", last)
	}
	if dump.Reason != "protection degraded: channel down" {
		t.Fatalf("dump reason = %q", dump.Reason)
	}

	// Dumps are bounded, oldest evicted.
	r.TripFlight(SpanContext{}, "monitor", "two")
	r.TripFlight(SpanContext{}, "monitor", "three")
	dumps := r.FlightDumps()
	if len(dumps) != 2 {
		t.Fatalf("retained %d dumps, want 2", len(dumps))
	}
	if dumps[0].Reason != "two" || dumps[1].Reason != "three" {
		t.Fatalf("dump reasons = %q, %q", dumps[0].Reason, dumps[1].Reason)
	}

	jsonl, err := dumps[1].JSONL()
	if err != nil {
		t.Fatalf("JSONL: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if len(lines) != 1+len(dumps[1].Events) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), 1+len(dumps[1].Events))
	}
	if !bytes.Contains(lines[0], []byte(`"reason":"three"`)) {
		t.Fatalf("JSONL header = %s", lines[0])
	}
}

// TestSnapshotReproducible asserts that two identical runs produce
// byte-identical formatted output — the property overhaul-top relies
// on.
func TestSnapshotReproducible(t *testing.T) {
	run := func() (string, string) {
		clk := clock.NewSimulated()
		r := New(clk)
		root := r.StartSpan(SpanContext{}, "xserver", "hardware_click")
		clk.Advance(250 * time.Microsecond)
		child := r.StartSpan(root.Context(), "monitor", "decide")
		child.Annotate("verdict", "grant")
		r.Add("monitor", "decisions", "verdict=grant", 1)
		clk.Advance(50 * time.Microsecond)
		child.End()
		root.End()
		return FormatTrace(r.TraceSpans(root.Context().Trace)), FormatMetrics(r.MetricsSnapshot())
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 {
		t.Fatalf("trace output differs:\n%s\n---\n%s", t1, t2)
	}
	if m1 != m2 {
		t.Fatalf("metrics output differs:\n%s\n---\n%s", m1, m2)
	}
	if !strings.Contains(t1, "09:00:00.000250") {
		t.Fatalf("trace missing virtual-clock timestamp:\n%s", t1)
	}
	if !strings.Contains(t1, "verdict=grant") {
		t.Fatalf("trace missing annotation:\n%s", t1)
	}
	// Child indented under root.
	if !strings.Contains(t1, "\n  09:00:00.000250") {
		t.Fatalf("child span not nested:\n%s", t1)
	}
}

func TestFormatTraceOrphanSpans(t *testing.T) {
	r := New(clock.NewSimulated())
	parent := r.StartSpan(SpanContext{}, "a", "p")
	child := r.StartSpan(parent.Context(), "b", "c")
	child.End()
	parent.End()
	// Render only the child: its parent is missing, so it roots.
	out := FormatTrace(r.Spans()[1:])
	if !strings.HasPrefix(out, "09:00:00.000000") {
		t.Fatalf("orphan did not render at root:\n%s", out)
	}
	if FormatTrace(nil) != "(no spans)\n" {
		t.Fatal("empty trace rendering changed")
	}
	if FormatFlight(nil) != "(flight ring empty)\n" {
		t.Fatal("empty flight rendering changed")
	}
	if FormatMetrics(nil) != "(no metrics)\n" {
		t.Fatal("empty metrics rendering changed")
	}
}

// TestConcurrentUse hammers one recorder from several goroutines while
// another reads the flight dumps back; run with -race in CI.
func TestConcurrentUse(t *testing.T) {
	r := NewWithOptions(clock.NewSimulated(), Options{SpanCapacity: 64, FlightCapacity: 32, DumpCapacity: 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add("m", "ops", "", 1)
				r.Observe("m", "lat", "", time.Microsecond)
				s := r.StartSpan(SpanContext{}, "m", "op")
				s.Annotate("i", "x")
				// An ended span goes back to the free list for another
				// goroutine to reuse, so take its context first.
				ctx := s.Context()
				s.End()
				r.RecordEvent(ctx, "m", "k", "d")
				r.RecordDecision(ctx, "m", g, "mic", "deny", "stale")
				switch i % 50 {
				case 0:
					r.TripFlight(ctx, "m", "trip")
				case 25:
					r.TripDenial(ctx, "m", g, "mic", "stale")
				}
			}
		}()
	}
	done := make(chan struct{})
	read := make(chan int)
	go func() {
		reads := 0
		for {
			select {
			case <-done:
				read <- reads
				return
			default:
			}
			for _, d := range r.FlightDumps() {
				if len(d.Events) == 0 || d.Events[len(d.Events)-1].Detail != d.Reason {
					t.Errorf("dump %d: last event does not carry the reason %q", d.Seq, d.Reason)
				}
			}
			if d, ok := r.LastFlightDump(); ok && d.Events[len(d.Events)-1].Kind != "trip" {
				t.Errorf("dump %d does not end at its trip", d.Seq)
			}
			reads++
		}
	}()
	wg.Wait()
	close(done)
	if <-read == 0 {
		t.Error("reader never ran")
	}
	if got := r.CounterValue("m", "ops", ""); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	if len(r.FlightDumps()) != 2 {
		t.Fatalf("dumps = %d, want 2", len(r.FlightDumps()))
	}
	if got := r.FlightTrips(); got != 32 {
		t.Fatalf("trips = %d, want 32", got)
	}
}
