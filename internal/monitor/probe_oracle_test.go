package monitor

// The probe ≡ audit oracle: a match-all probe on the kernel.decide
// attach point must observe exactly the decision stream the audit log
// records — same order, same fields, byte-identical rendered lines,
// full reasons included. This pins the probe layer as a faithful,
// lossless view of the decision path.

import (
	"fmt"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
)

// auditLine renders a Decision the way probe.Event.Format renders the
// corresponding event, from the audit record alone.
func auditLine(d Decision) string {
	stamp := int64(0)
	if !d.Stamp.IsZero() {
		stamp = d.Stamp.UnixNano()
	}
	return fmt.Sprintf("decide pid=%d session=0 dev=%s verdict=%s t=%d stamp=%d reason=%s",
		d.PID, string(d.Op), d.Verdict.String(), d.OpTime.UnixNano(), stamp, d.Reason)
}

func TestProbeDecideStreamMatchesAuditOracle(t *testing.T) {
	clk := clock.NewSimulated()
	tasks := newFakeTasks()
	for _, pid := range []int{1, 2, 3} {
		tasks.add(pid)
	}
	reg := probe.NewRegistry()
	ring := probe.NewRing(1024)
	if _, err := reg.AttachSpec("hook=kernel.decide", ring); err != nil {
		t.Fatal(err)
	}
	m, err := New(tasks, Config{Enforce: true, Probes: reg})
	if err != nil {
		t.Fatal(err)
	}

	// A single-goroutine script walking every decision shape the
	// policy can produce.
	now := clk.Now()
	if err := m.Notify(1, now); err != nil {
		t.Fatal(err)
	}
	m.Decide(1, OpMic, now.Add(time.Millisecond)) // grant: within δ
	m.Decide(2, OpCam, now)                       // deny: no interaction
	m.Decide(99, OpScreen, now)                   // deny: no such process
	tasks.disabled[3] = true
	m.Decide(3, OpPaste, now) // deny: ptrace guard
	tasks.disabled[3] = false
	clk.Advance(5*time.Second + 250*time.Millisecond)
	later := clk.Now()
	m.Decide(1, OpCopy, later) // deny: stale by 3.25s
	if err := m.Notify(3, later); err != nil {
		t.Fatal(err)
	}
	m.Decide(3, OpMic, later.Add(-time.Millisecond)) // grant: stamp after op
	m.SetDegraded("channel dead")
	m.Decide(1, OpOther, later) // deny: degraded
	m.ClearDegraded()
	m.RecordDenial(2, OpOther, later, "transient open failure: fail closed")

	decisions := m.Audit()
	buf := make([]probe.Event, 1024)
	n := ring.ReadBatch(buf)
	if n != len(decisions) {
		t.Fatalf("probe saw %d events, audit has %d records", n, len(decisions))
	}
	if n != 8 {
		t.Fatalf("script produced %d decisions, want 8", n)
	}
	for i := 0; i < n; i++ {
		got := buf[i].Format()
		want := auditLine(decisions[i])
		if got != want {
			t.Errorf("record %d:\nprobe %q\naudit %q", i, got, want)
		}
	}
}
