package telemetry

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
)

// attached returns a recorder with opts consuming a fresh registry.
func attached(t testing.TB, clk clock.Clock, opts Options) (*Recorder, *probe.Registry) {
	t.Helper()
	r := NewWithOptions(clk, opts)
	reg := probe.NewRegistry()
	if err := r.Attach(reg); err != nil {
		t.Fatal(err)
	}
	return r, reg
}

// TestNilRecorderIsSafe exercises every reader on a nil recorder: the
// disabled state records nothing and attaches to nothing.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	reg := probe.NewRegistry()
	if err := r.Attach(reg); err != nil {
		t.Fatal(err)
	}
	for _, name := range probe.HookNames() {
		if reg.Hook(name).Armed() {
			t.Fatalf("nil recorder armed %s", name)
		}
	}
	if r.Spans() != nil || r.FlightEvents() != nil || r.FlightDumps() != nil {
		t.Fatal("nil recorder returned non-nil data")
	}
	if _, ok := r.LastFlightDump(); ok {
		t.Fatal("nil recorder has a dump")
	}
	if r.MetricsSnapshot() != nil {
		t.Fatal("nil recorder returned metrics")
	}
	if _, ok := r.TraceOf(1); ok || r.TraceSpans(1) != nil || r.SpansDropped() != 0 {
		t.Fatal("nil recorder resolved a trace")
	}
	if snap := r.Snapshot(); len(snap.Metrics) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil recorder snapshot not empty")
	}
}

// TestMetrics checks that counters and histograms are computed from
// the events, stamped on the virtual clock.
func TestMetrics(t *testing.T) {
	clk := clock.NewSimulated()
	r, reg := attached(t, clk, Options{})
	decide := reg.Hook(probe.HookKernelDecide)
	now := clk.Now().UnixNano()
	for _, ev := range []probe.Event{
		{Verdict: probe.VerdictGrant, StampNanos: now - int64(5*time.Microsecond)},
		{Verdict: probe.VerdictGrant, StampNanos: now - int64(2*time.Second)}, // overflow
		{Verdict: probe.VerdictGrant, StampNanos: now + int64(time.Second)},   // clamps to 0
		{Verdict: probe.VerdictDeny},                                          // no stamp: no age
	} {
		ev.Kind, ev.Dev, ev.TimeNanos, ev.PID = probe.KindDecide, probe.DevMic, now, 7
		decide.Emit(&ev)
	}
	reg.Hook(probe.HookNetlinkSend).Emit(&probe.Event{Kind: probe.KindSend})

	points := r.MetricsSnapshot()
	want := []string{
		"monitor.audit_appends{} counter 4",
		"monitor.decisions{op=mic verdict=deny} counter 1",
		"monitor.decisions{op=mic verdict=grant} counter 3",
		"monitor.stamp_age{op=mic} histogram 0",
		"netlink.messages{dir=kernel_to_user} counter 1",
	}
	if len(points) != len(want) {
		t.Fatalf("snapshot has %d points, want %d: %+v", len(points), len(want), points)
	}
	for i, p := range points {
		got := p.Subsystem + "." + p.Name + "{" + p.Labels + "} " + p.Kind + " " + strconv.FormatInt(p.Value, 10)
		if got != want[i] {
			t.Errorf("point %d = %q, want %q", i, got, want[i])
		}
		if !p.Updated.Equal(clock.Epoch) {
			t.Fatalf("metric %s.%s not stamped on virtual clock: %v", p.Subsystem, p.Name, p.Updated)
		}
	}
	// Sorted ages are 0, 5µs and 2s. A quantile reports its bucket's
	// lower bound, at most one sub-bucket (~6%) below the true value.
	h := points[3].Latency
	if h == nil || h.Count != 3 || h.Max != 2*time.Second {
		t.Fatalf("histogram point = %+v", points[3])
	}
	if h.P50 > 5*time.Microsecond || h.P50 < 4700*time.Nanosecond {
		t.Errorf("stamp_age p50 = %v, want ~5µs", h.P50)
	}
	if h.P99 > 2*time.Second || h.P99 < 1880*time.Millisecond {
		t.Errorf("stamp_age p99 = %v, want ~2s", h.P99)
	}
	// Only the observed histogram holds buckets; counters carry none.
	for k, m := range r.metrics {
		if hist := k.Name == "stamp_age" && k.Labels == "op=mic"; (m.hist != nil) != hist {
			t.Errorf("metric %+v has buckets %v, want %v", k, m.hist != nil, hist)
		}
	}
	for _, p := range points {
		if (p.Latency != nil) != (p.Kind == "histogram") {
			t.Errorf("point %s.%s{%s} kind %s carries latency %+v", p.Subsystem, p.Name, p.Labels, p.Kind, p.Latency)
		}
	}
}

// tickClock is a clock double that advances 1ns on every read and
// counts its reads, so a test sees both how often and when a consumer
// read it.
type tickClock struct {
	mu    sync.Mutex
	t     time.Time
	reads int
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	c.t = c.t.Add(time.Nanosecond)
	return c.t
}

func (c *tickClock) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// TestConsumeReadsClockOnce pins the recorder's one clock read per
// consumed denial: its decision record and its flight trip share one
// instant.
func TestConsumeReadsClockOnce(t *testing.T) {
	clk := &tickClock{t: clock.Epoch}
	r, reg := attached(t, clk, Options{})
	// A recorder's first metric update, before any span has ended,
	// reads the clock once for the freshness stamp that then stands.
	reg.Hook(probe.HookNetlinkSend).Emit(&probe.Event{Kind: probe.KindSend})
	if reads := clk.count(); reads != 1 {
		t.Fatalf("first metric update read the clock %d times, want 1", reads)
	}
	decide := reg.Hook(probe.HookKernelDecide)
	for i, recorded := range []bool{false, false, true} {
		ev := probe.Event{Kind: probe.KindDecide, Dev: probe.DevMic, Verdict: probe.VerdictDeny,
			PID: 7, Reason: "stale stamp", Ctx: probe.SpanContext{Trace: 1, Span: probe.SpanID(i + 1)}}
		if recorded {
			ev.Flags = probe.FlagRecorded
		}
		before := clk.count()
		decide.Emit(&ev)
		if reads := clk.count() - before; reads != 1 {
			t.Fatalf("denial %d (recorded %v) read the clock %d times, want 1", i, recorded, reads)
		}
	}
	events := r.FlightEvents()
	if len(events) != 5 {
		t.Fatalf("flight ring holds %d events, want 5: %+v", len(events), events)
	}
	for i, kind := range []string{"decision", "trip", "decision", "trip", "trip"} {
		if events[i].Kind != kind {
			t.Fatalf("event %d kind %q, want %q", i, events[i].Kind, kind)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		d, trip := events[pair[0]], events[pair[1]]
		if !d.Time.Equal(trip.Time) {
			t.Errorf("decision at %v, its trip at %v: want one instant", d.Time, trip.Time)
		}
	}
	if !events[1].Time.Before(events[2].Time) || !events[3].Time.Before(events[4].Time) {
		t.Errorf("events of successive denials share an instant: %v", events)
	}
}

// testSpan is a span begun on a hook; End ends it there.
type testSpan struct {
	h *probe.Hook
	*probe.Event
}

// span begins a span on h under parent with ev as its begin event.
func span(h *probe.Hook, parent probe.SpanContext, ev probe.Event) testSpan {
	h.Begin(parent, &ev)
	return testSpan{h, &ev}
}

func (s testSpan) End() { s.h.End(s.Event) }

func TestSpansDeterministicIDs(t *testing.T) {
	clk := clock.NewSimulated()
	r, reg := attached(t, clk, Options{})
	root := span(reg.Hook(probe.HookXServerInput), probe.SpanContext{}, probe.Event{Kind: probe.KindInput, Detail: "click"})
	clk.Advance(time.Millisecond)
	child := span(reg.Hook(probe.HookNetlinkCall), root.Ctx, probe.Event{Kind: probe.KindCall, Detail: "notify_call"})
	child.Reason = "channel down"
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
	if spans[1].Name != "notify_call" || len(spans[1].Attrs) != 1 || spans[1].Attrs[0] != (Attr{"error", "channel down"}) {
		t.Fatalf("child naming/attrs = %+v", spans[1])
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
	other := span(reg.Hook(probe.HookXServerInput), probe.SpanContext{}, probe.Event{Kind: probe.KindInput})
	defer other.End()
	if other.Ctx.Trace != 2 {
		t.Fatalf("second trace id = %d", other.Ctx.Trace)
	}
	if subs := Subsystems(spans); len(subs) != 2 || subs[0] != "netlink" || subs[1] != "xserver" {
		t.Fatalf("Subsystems = %v", subs)
	}
}

func TestSpanEviction(t *testing.T) {
	r, reg := attached(t, clock.NewSimulated(), Options{SpanCapacity: 3})
	h := reg.Hook(probe.HookMonitorNotify)
	for i := 0; i < 5; i++ {
		s := span(h, probe.SpanContext{}, probe.Event{Kind: probe.KindNotify})
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
	if _, ok := r.TraceOf(1); ok {
		t.Fatal("evicted span still resolves")
	}
}

func TestFlightRingAndDumps(t *testing.T) {
	clk := clock.NewSimulated()
	r := NewWithOptions(clk, Options{FlightCapacity: 4, DumpCapacity: 2})
	for i := 0; i < 6; i++ {
		r.recordEvent(probe.SpanContext{}, "kernel", "decision", "grant mic")
		clk.Advance(time.Millisecond)
	}
	events := r.FlightEvents()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	if events[0].Seq != 3 || events[3].Seq != 6 {
		t.Fatalf("ring seqs %d..%d, want 3..6", events[0].Seq, events[3].Seq)
	}

	r.tripFlight(probe.SpanContext{Trace: 9, Span: 9}, "monitor", "protection degraded: channel down")
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
	r.tripFlight(probe.SpanContext{}, "monitor", "two")
	r.tripFlight(probe.SpanContext{}, "monitor", "three")
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
		r, reg := attached(t, clk, Options{})
		root := span(reg.Hook(probe.HookXServerInput), probe.SpanContext{}, probe.Event{Kind: probe.KindInput, Detail: "click"})
		clk.Advance(250 * time.Microsecond)
		child := span(reg.Hook(probe.HookMonitorEvaluate), root.Ctx, probe.Event{
			Kind: probe.KindEvaluate, PID: 7, Dev: probe.DevMic, Verdict: probe.VerdictGrant, Reason: "fresh",
		})
		reg.Hook(probe.HookKernelDecide).Emit(&probe.Event{Kind: probe.KindDecide, Ctx: child.Ctx, PID: 7, Dev: probe.DevMic, Verdict: probe.VerdictGrant})
		clk.Advance(50 * time.Microsecond)
		child.End()
		root.End()
		return FormatTrace(r.TraceSpans(root.Ctx.Trace)), FormatMetrics(r.MetricsSnapshot())
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
	r, reg := attached(t, clock.NewSimulated(), Options{})
	h := reg.Hook(probe.HookNetlinkCall)
	parent := span(h, probe.SpanContext{}, probe.Event{Kind: probe.KindCall, Detail: "p"})
	child := span(h, parent.Ctx, probe.Event{Kind: probe.KindCall, Detail: "c"})
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

// TestConcurrentUse hammers one recorder through its hooks from several
// goroutines while another reads the flight dumps back; run with -race
// in CI.
// TestSpanRingKeepsNewestIDs is the span ring's late-begin property.
// Span ids are minted before the recorder's lock is taken, so begins
// reach the ring out of id order. Whatever the order, and from however
// many goroutines, the ring must hold exactly the begun ids among the
// newest SpanCapacity ids, and count every other begin as dropped:
// each slot keeps the newest span begun into it.
func TestSpanRingKeepsNewestIDs(t *testing.T) {
	const capacity = 64
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 31))
		var ids []probe.SpanID
		minted := probe.SpanID(1 + rng.IntN(4*capacity))
		for id := probe.SpanID(1); id <= minted; id++ {
			if rng.IntN(5) > 0 { // some minted ids never begin
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			continue
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

		r := NewWithOptions(clock.NewSimulated(), Options{SpanCapacity: capacity})
		workers := 1 + rng.IntN(4)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(ids); i += workers {
					ev := probe.Event{Ctx: probe.SpanContext{Trace: 1, Span: ids[i]}}
					r.mu.Lock()
					r.beginSpan(&ev, "test", "span")
					r.mu.Unlock()
				}
			}()
		}
		wg.Wait()

		newest := slices.Max(ids)
		var want []probe.SpanID
		classes := map[probe.SpanID]bool{}
		for _, id := range ids {
			if id+capacity > newest {
				want = append(want, id)
			}
			classes[(id-1)%capacity] = true
		}
		slices.Sort(want)
		var got []probe.SpanID
		for _, s := range r.Spans() {
			got = append(got, s.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (%d begins, %d goroutines): ring holds %v, want the begun ids among the newest %d: %v",
				seed, len(ids), workers, got, capacity, want)
		}
		if d, want := r.SpansDropped(), uint64(len(ids)-len(classes)); d != want {
			t.Fatalf("seed %d: dropped = %d, want %d (begins beyond the occupied slots)", seed, d, want)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r, reg := attached(t, clock.NewSimulated(), Options{SpanCapacity: 64, FlightCapacity: 32, DumpCapacity: 2})
	notify, decide := reg.Hook(probe.HookMonitorNotify), reg.Hook(probe.HookKernelDecide)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := span(notify, probe.SpanContext{}, probe.Event{Kind: probe.KindNotify, PID: int64(g)})
				ev := probe.Event{Kind: probe.KindDecide, Ctx: s.Ctx, PID: int64(g), Dev: probe.DevMic, Verdict: probe.VerdictGrant, Reason: "fresh"}
				if i%25 == 0 {
					ev.Verdict, ev.Reason = probe.VerdictDeny, "stale"
				}
				decide.Emit(&ev)
				s.End()
			}
		}()
	}
	done := make(chan struct{})
	read := make(chan int)
	go func() {
		// One pass always runs before done is checked: the writers may
		// all finish before this goroutine is first scheduled.
		reads := 0
		for {
			for _, d := range r.FlightDumps() {
				if len(d.Events) == 0 || d.Events[len(d.Events)-1].Detail != d.Reason {
					t.Errorf("dump %d: last event does not carry the reason %q", d.Seq, d.Reason)
				}
			}
			if d, ok := r.LastFlightDump(); ok && d.Events[len(d.Events)-1].Kind != "trip" {
				t.Errorf("dump %d does not end at its trip", d.Seq)
			}
			_ = r.Snapshot()
			reads++
			select {
			case <-done:
				read <- reads
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	if <-read == 0 {
		t.Error("reader never ran")
	}
	var decisions int64
	for _, p := range r.MetricsSnapshot() {
		if p.Name == "decisions" || p.Name == "notifications" {
			decisions += p.Value
		}
	}
	if decisions != 1600 {
		t.Fatalf("decisions + notifications = %d, want 1600", decisions)
	}
	if len(r.FlightDumps()) != 2 {
		t.Fatalf("dumps = %d, want 2", len(r.FlightDumps()))
	}
	if got := r.FlightTrips(); got != 32 {
		t.Fatalf("trips = %d, want 32", got)
	}
	if got := len(r.Spans()); got != 64 {
		t.Fatalf("spans = %d, want 64", got)
	}
}
