package monitor

// Telemetry-overhead benchmarks: Decide allocates nothing, with or
// without a telemetry recorder consuming its events. Run with
// `make bench`, which records ns/op and allocs/op for every benchmark
// into BENCH_overhaul.json at the repo root.

import (
	"sync/atomic"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
)

// fastBenchTasks is the benchmark task store: its InteractionView is
// served from an atomic, exactly as the kernel's sharded process table
// serves it, so the benchmark measures the monitor rather than the
// mutexed fakeTasks.
type fastBenchTasks struct {
	pid        int
	stampNanos atomic.Int64
}

func (f *fastBenchTasks) SetInteractionStampSpan(pid int, t time.Time, _ probe.SpanContext) error {
	if pid != f.pid {
		return ErrNoSuchProcess
	}
	for {
		cur := f.stampNanos.Load()
		n := t.UnixNano()
		if n <= cur || f.stampNanos.CompareAndSwap(cur, n) {
			return nil
		}
	}
}

func (f *fastBenchTasks) InteractionView(pid int) (time.Time, probe.SpanContext, bool, bool) {
	if pid != f.pid {
		return time.Time{}, probe.SpanContext{}, false, false
	}
	return time.Unix(0, f.stampNanos.Load()).UTC(), probe.SpanContext{}, false, true
}

// benchMonitor builds a standalone enforcing monitor with one stamped
// process whose stamp stays inside δ, so every Decide grants. A
// non-nil tel consumes the monitor's probe events.
func benchMonitor(tb testing.TB, tel *telemetry.Recorder) (*Monitor, time.Time) {
	tb.Helper()
	var reg *probe.Registry
	if tel != nil {
		reg = probe.NewRegistry()
		if err := tel.Attach(reg); err != nil {
			tb.Fatal(err)
		}
	}
	return benchProbeMonitor(tb, reg)
}

// benchWarmup cycles the lazily allocated bounded stores — the audit
// ring, the span ring, the flight ring — past their capacities so the timed loop measures the steady state rather
// than the one-time ring fill. Capacities are ~1k; 3000 covers them
// with margin.
const benchWarmup = 3000

func BenchmarkDecideTelemetryDisabled(b *testing.B) {
	m, opTime := benchMonitor(b, nil)
	for i := 0; i < benchWarmup; i++ {
		m.Decide(7, OpMic, opTime)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(7, OpMic, opTime)
	}
}

func BenchmarkDecideTelemetryEnabled(b *testing.B) {
	m, opTime := benchMonitor(b, telemetry.New(clock.NewSimulated()))
	for i := 0; i < benchWarmup; i++ {
		m.Decide(7, OpMic, opTime)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(7, OpMic, opTime)
	}
}

// BenchmarkDecideTelemetryEnabledDeny is the instrumented deny path:
// the same monitor asked about a stale stamp, so every Decide denies
// and trips the flight recorder.
func BenchmarkDecideTelemetryEnabledDeny(b *testing.B) {
	m, opTime := benchMonitor(b, telemetry.New(clock.NewSimulated()))
	opTime = opTime.Add(staleBy)
	for i := 0; i < benchWarmup; i++ {
		if m.Decide(7, OpMic, opTime) != VerdictDeny {
			b.Fatal("stale op time granted")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(7, OpMic, opTime)
	}
}

// staleBy moves a benchMonitor op time far past any δ.
const staleBy = time.Hour

// TestDecideTelemetryEnabledZeroAlloc hard-asserts that the fully
// instrumented Decide path allocates NOTHING per op in steady state:
// the events, the counters and histograms they update, the span
// record and the structured flight-recorder append must all reuse
// pre-built labels and fixed-size buffers. The warmup cycles the lazily
// allocated bounded stores past their capacities first, exactly like
// the benchmarks do.
func TestDecideTelemetryEnabledZeroAlloc(t *testing.T) {
	m, opTime := benchMonitor(t, telemetry.New(clock.NewSimulated()))
	for i := 0; i < benchWarmup; i++ {
		m.Decide(7, OpMic, opTime)
	}
	if avg := testing.AllocsPerRun(200, func() {
		m.Decide(7, OpMic, opTime)
	}); avg != 0 {
		t.Errorf("Decide with telemetry allocates %.1f times per op, want 0", avg)
	}
}

// TestDecideTelemetryEnabledDenyZeroAlloc is the deny-path twin: a
// denial under telemetry records its decision and trips the flight
// recorder with structured fields, so it allocates nothing either.
func TestDecideTelemetryEnabledDenyZeroAlloc(t *testing.T) {
	m, opTime := benchMonitor(t, telemetry.New(clock.NewSimulated()))
	opTime = opTime.Add(staleBy)
	for i := 0; i < benchWarmup; i++ {
		if m.Decide(7, OpMic, opTime) != VerdictDeny {
			t.Fatal("stale op time granted")
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		m.Decide(7, OpMic, opTime)
	}); avg != 0 {
		t.Errorf("denying Decide with telemetry allocates %.1f times per op, want 0", avg)
	}
}

// TestDecideTelemetryDisabledZeroAlloc hard-asserts the benchmark's
// claim so a regression fails `go test`, not just a human reading
// BENCH_overhaul.json.
func TestDecideTelemetryDisabledZeroAlloc(t *testing.T) {
	clk := clock.NewSimulated()
	tasks := newFakeTasks()
	tasks.add(7)
	tasks.stamps[7] = clk.Now()
	m, err := New(tasks, Config{Enforce: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	opTime := clk.Now().Add(time.Millisecond)
	m.Decide(7, OpMic, opTime) // allocate the audit ring
	if avg := testing.AllocsPerRun(200, func() {
		m.Decide(7, OpMic, opTime)
	}); avg != 0 {
		t.Errorf("Decide with nil recorder allocates %.1f times per op, want 0", avg)
	}
}
