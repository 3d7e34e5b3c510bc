package probe

import (
	"testing"
)

// benchEvent is a representative hot-path emission: a mic denial.
var benchEvent = Event{
	TimeNanos: 1_000_000, StampNanos: 500_000, Session: 1, PID: 42,
	Kind: KindDecide, Dev: DevMic, Verdict: VerdictDeny,
	Reason: "no recorded user interaction",
}

func BenchmarkProbeAttach(b *testing.B) {
	r := NewRegistry()
	ring := NewRing(64)
	spec, err := ParseSpec("hook=kernel.decide verdict=deny")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := r.Attach(spec, ring)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Detach(p.ID()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeDispatch measures the canonical emission-site pattern
// (if h.Wants(pid) { h.Emit(&ev) }) at its three cost levels.
func BenchmarkProbeDispatch(b *testing.B) {
	b.Run("unattached", func(b *testing.B) {
		// The cost every instrumented hot path pays when nothing is
		// attached: one atomic load.
		r := NewRegistry()
		h := r.Hook(HookKernelDecide)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.Wants(benchEvent.PID) {
				h.Emit(&benchEvent)
			}
		}
	})
	b.Run("idle", func(b *testing.B) {
		// Attached but pid-scoped elsewhere: the aggregate pid window
		// rejects the event before it is even constructed.
		r := NewRegistry()
		ring := NewRing(64)
		if _, err := r.AttachSpec("hook=kernel.decide pid=1099511627776", ring); err != nil {
			b.Fatal(err)
		}
		h := r.Hook(HookKernelDecide)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.Wants(benchEvent.PID) {
				h.Emit(&benchEvent)
			}
		}
	})
	b.Run("nomatch", func(b *testing.B) {
		// Attached, pid window passes, the full predicate rejects: the
		// second-stage cost (flat field compares, no publish).
		r := NewRegistry()
		ring := NewRing(64)
		if _, err := r.AttachSpec("hook=kernel.decide dev=cam", ring); err != nil {
			b.Fatal(err)
		}
		h := r.Hook(HookKernelDecide)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.Wants(benchEvent.PID) {
				h.Emit(&benchEvent)
			}
		}
	})
	b.Run("match", func(b *testing.B) {
		// Attached and matching: predicate plus a ring publish, with a
		// batched reader draining like a live collector.
		r := NewRegistry()
		ring := NewRing(4096)
		if _, err := r.AttachSpec("hook=kernel.decide verdict=deny", ring); err != nil {
			b.Fatal(err)
		}
		h := r.Hook(HookKernelDecide)
		buf := make([]Event, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.Wants(benchEvent.PID) {
				h.Emit(&benchEvent)
			}
			if i&511 == 511 {
				ring.ReadBatch(buf)
			}
		}
	})
}

func BenchmarkProbeRingPublish(b *testing.B) {
	ring := NewRing(4096)
	buf := make([]Event, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Publish(&benchEvent)
		if i&511 == 511 {
			ring.ReadBatch(buf)
		}
	}
}

// The attach points' hard cost contracts: no allocation whether the
// hook is unattached, attached-idle, or attached-and-matching.
func TestProbeDispatchZeroAlloc(t *testing.T) {
	r := NewRegistry()
	unarmed := r.Hook(HookKernelOpen)
	if allocs := testing.AllocsPerRun(200, func() {
		if unarmed.Wants(benchEvent.PID) {
			unarmed.Emit(&benchEvent)
		}
	}); allocs != 0 {
		t.Fatalf("unattached dispatch allocates %v per op, want 0", allocs)
	}

	ring := NewRing(64)
	if _, err := r.AttachSpec("hook=kernel.decide pid=1099511627776", ring); err != nil {
		t.Fatal(err)
	}
	idle := r.Hook(HookKernelDecide)
	if allocs := testing.AllocsPerRun(200, func() {
		if idle.Wants(benchEvent.PID) {
			idle.Emit(&benchEvent)
		}
	}); allocs != 0 {
		t.Fatalf("attached-idle dispatch allocates %v per op, want 0", allocs)
	}

	matchRing := NewRing(64)
	if _, err := r.AttachSpec("hook=monitor.evaluate", matchRing); err != nil {
		t.Fatal(err)
	}
	match := r.Hook(HookMonitorEvaluate)
	buf := make([]Event, 64)
	if allocs := testing.AllocsPerRun(200, func() {
		if match.Wants(0) {
			match.Emit(&Event{Kind: KindEvaluate})
		}
		matchRing.ReadBatch(buf)
	}); allocs != 0 {
		t.Fatalf("matching dispatch allocates %v per op, want 0", allocs)
	}
}
