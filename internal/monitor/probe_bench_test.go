package monitor

// Probe-overhead benchmarks and hard contracts: an attached-but-idle
// probe must add no allocation to the Decide hot path, and the
// per-decision cost of an unattached hook is a single atomic load.
// BenchmarkDecideProbeAttached is gated by bench-compare (within 25%
// of BENCH_overhaul.json) alongside the other Decide benchmarks.

import (
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
)

// benchProbeMonitor is benchMonitor with a probe registry wired in.
func benchProbeMonitor(tb testing.TB, reg *probe.Registry) (*Monitor, time.Time) {
	tb.Helper()
	clk := clock.NewSimulated()
	tasks := &fastBenchTasks{pid: 7}
	tasks.stampNanos.Store(clk.Now().UnixNano())
	m, err := New(tasks, Config{Enforce: true, Probes: reg})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return m, clk.Now().Add(time.Millisecond)
}

// BenchmarkDecideProbeUnattached measures the registry-wired-but-idle
// configuration every deployment pays once probes ship: three armed
// checks (evaluate, audit, decide), each one atomic load.
func BenchmarkDecideProbeUnattached(b *testing.B) {
	m, opTime := benchProbeMonitor(b, probe.NewRegistry())
	for i := 0; i < benchWarmup; i++ {
		m.Decide(7, OpMic, opTime)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(7, OpMic, opTime)
	}
}

// BenchmarkDecideProbeAttached measures Decide with a match-all probe
// on kernel.decide: predicate evaluation plus one ring publish per
// decision, with a batched reader draining the ring like a live
// collector.
func BenchmarkDecideProbeAttached(b *testing.B) {
	reg := probe.NewRegistry()
	ring := probe.NewRing(4096)
	if _, err := reg.AttachSpec("hook=kernel.decide", ring); err != nil {
		b.Fatal(err)
	}
	m, opTime := benchProbeMonitor(b, reg)
	for i := 0; i < benchWarmup; i++ {
		m.Decide(7, OpMic, opTime)
	}
	buf := make([]probe.Event, 512)
	ring.ReadBatch(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(7, OpMic, opTime)
		if i&255 == 255 {
			ring.ReadBatch(buf)
		}
	}
}

// TestDecideProbeAttachedZeroAlloc hard-asserts the attach points'
// cost contract on the real decision path: whether the hooks are
// unattached, attached-idle (predicate never matches), or
// attached-and-matching, Decide allocates nothing per op.
func TestDecideProbeAttachedZeroAlloc(t *testing.T) {
	reg := probe.NewRegistry()
	m, opTime := benchProbeMonitor(t, reg)
	warm := func() {
		for i := 0; i < benchWarmup; i++ {
			m.Decide(7, OpMic, opTime)
		}
	}
	warm()
	if avg := testing.AllocsPerRun(200, func() {
		m.Decide(7, OpMic, opTime)
	}); avg != 0 {
		t.Errorf("Decide with unattached hooks allocates %.1f per op, want 0", avg)
	}

	// Attached but never matching: the predicate runs, no publish.
	idleRing := probe.NewRing(64)
	if _, err := reg.AttachSpec("pid=1099511627776", idleRing); err != nil {
		t.Fatal(err)
	}
	warm()
	if avg := testing.AllocsPerRun(200, func() {
		m.Decide(7, OpMic, opTime)
	}); avg != 0 {
		t.Errorf("Decide with attached-idle probe allocates %.1f per op, want 0", avg)
	}

	// Attached and matching on all three monitor hooks.
	matchRing := probe.NewRing(4096)
	if _, err := reg.AttachSpec("", matchRing); err != nil {
		t.Fatal(err)
	}
	warm()
	buf := make([]probe.Event, 512)
	if avg := testing.AllocsPerRun(200, func() {
		m.Decide(7, OpMic, opTime)
		matchRing.ReadBatch(buf)
	}); avg != 0 {
		t.Errorf("Decide with matching probe allocates %.1f per op, want 0", avg)
	}
}
