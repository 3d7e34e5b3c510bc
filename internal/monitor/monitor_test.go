package monitor

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
)

// fakeTasks is a minimal TaskStore.
type fakeTasks struct {
	mu       sync.Mutex
	stamps   map[int]time.Time
	disabled map[int]bool
}

func newFakeTasks() *fakeTasks {
	return &fakeTasks{stamps: make(map[int]time.Time), disabled: make(map[int]bool)}
}

func (f *fakeTasks) InteractionStamp(pid int) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.stamps[pid]
	return t, ok
}

func (f *fakeTasks) SetInteractionStamp(pid int, t time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur, ok := f.stamps[pid]
	if !ok {
		return ErrNoSuchProcess
	}
	if t.After(cur) {
		f.stamps[pid] = t
	}
	return nil
}

func (f *fakeTasks) InteractionView(pid int) (time.Time, probe.SpanContext, bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.stamps[pid]
	return t, probe.SpanContext{}, ok && f.disabled[pid], ok
}

func (f *fakeTasks) SetInteractionStampSpan(pid int, t time.Time, _ probe.SpanContext) error {
	return f.SetInteractionStamp(pid, t)
}

func (f *fakeTasks) add(pid int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stamps[pid] = time.Time{}
}

func newTestMonitor(t *testing.T, cfg Config) (*Monitor, *fakeTasks, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated()
	tasks := newFakeTasks()
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	m, err := New(tasks, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m, tasks, clk
}

func TestDecideTemporalProximity(t *testing.T) {
	tests := []struct {
		name  string
		delay time.Duration // op time minus interaction time
		want  Verdict
	}{
		{name: "immediate", delay: 0, want: VerdictGrant},
		{name: "within window", delay: 500 * time.Millisecond, want: VerdictGrant},
		{name: "just inside", delay: 2*time.Second - time.Nanosecond, want: VerdictGrant},
		{name: "exactly at threshold", delay: 2 * time.Second, want: VerdictDeny},
		{name: "stale", delay: time.Minute, want: VerdictDeny},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
			tasks.add(7)
			interaction := clk.Now()
			if err := m.Notify(7, interaction); err != nil {
				t.Fatalf("Notify: %v", err)
			}
			opTime := interaction.Add(tt.delay)
			if got := m.Decide(7, OpMic, opTime); got != tt.want {
				t.Fatalf("Decide(+%v) = %v, want %v", tt.delay, got, tt.want)
			}
		})
	}
}

func TestDecideNoInteraction(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(7)
	if got := m.Decide(7, OpCam, clk.Now()); got != VerdictDeny {
		t.Fatalf("Decide with no interaction = %v, want deny", got)
	}
}

func TestDecideUnknownProcess(t *testing.T) {
	m, _, clk := newTestMonitor(t, Config{Enforce: true})
	if got := m.Decide(999, OpCam, clk.Now()); got != VerdictDeny {
		t.Fatalf("Decide unknown pid = %v, want deny", got)
	}
}

func TestDecidePtraceGuard(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(7)
	if err := m.Notify(7, clk.Now()); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	tasks.disabled[7] = true
	if got := m.Decide(7, OpMic, clk.Now()); got != VerdictDeny {
		t.Fatalf("Decide for traced process = %v, want deny", got)
	}
}

func TestForceGrantMode(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true, ForceGrant: true})
	tasks.add(7)
	// No interaction at all, yet granted: benchmark mode exercises the
	// full grant path.
	if got := m.Decide(7, OpMic, clk.Now()); got != VerdictGrant {
		t.Fatalf("force-grant Decide = %v, want grant", got)
	}
}

func TestObserveOnlyMode(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: false})
	tasks.add(7)
	if got := m.Decide(7, OpScreen, clk.Now()); got != VerdictGrant {
		t.Fatalf("observe-only Decide = %v, want grant", got)
	}
	// But the audit trail still records the query.
	if audit := m.Audit(); len(audit) != 1 || audit[0].Reason != "observe-only mode" {
		t.Fatalf("audit = %+v", audit)
	}
}

func TestNotifyKeepsNewestStamp(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(7)
	t1 := clk.Now()
	clk.Advance(time.Second)
	t2 := clk.Now()
	if err := m.Notify(7, t2); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	// An older notification must not regress the stamp.
	if err := m.Notify(7, t1); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	stamp, ok := tasks.InteractionStamp(7)
	if !ok || !stamp.Equal(t2) {
		t.Fatalf("stamp = %v, want %v", stamp, t2)
	}
}

func TestNotifyUnknownPID(t *testing.T) {
	m, _, clk := newTestMonitor(t, Config{Enforce: true})
	if err := m.Notify(404, clk.Now()); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("Notify unknown = %v, want ErrNoSuchProcess", err)
	}
}

func TestAlertsSentOnlyForAlertOps(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(7)
	var (
		mu     sync.Mutex
		alerts []AlertRequest
	)
	m.SetAlertFunc(func(a AlertRequest) {
		mu.Lock()
		defer mu.Unlock()
		alerts = append(alerts, a)
	})
	if err := m.Notify(7, clk.Now()); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	now := clk.Now()
	m.Decide(7, OpMic, now)    // kernel-side alert
	m.Decide(7, OpPaste, now)  // silent per paper §V-C
	m.Decide(7, OpCopy, now)   // silent
	m.Decide(7, OpScreen, now) // alerted by the display manager, not here
	m.Decide(7, OpOther, now)  // kernel-side alert (generic sensor)

	mu.Lock()
	defer mu.Unlock()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want 2 (mic, dev)", alerts)
	}
	if alerts[0].Op != OpMic || alerts[1].Op != OpOther {
		t.Fatalf("alert ops = %v, %v", alerts[0].Op, alerts[1].Op)
	}
}

func TestBlockedAlertOnDeny(t *testing.T) {
	// §V-B: a blocked camera access is alerted too, marked Blocked.
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(7)
	var got []AlertRequest
	m.SetAlertFunc(func(a AlertRequest) { got = append(got, a) })
	m.Decide(7, OpMic, clk.Now()) // no interaction -> deny
	if len(got) != 1 || !got[0].Blocked {
		t.Fatalf("alerts = %+v, want one blocked alert", got)
	}
	// Clipboard denials stay silent.
	m.Decide(7, OpPaste, clk.Now())
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want clipboard denial silent", got)
	}
}

func TestAuditLogRecordsEverything(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(1)
	tasks.add(2)
	if err := m.Notify(1, clk.Now()); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	now := clk.Now()
	m.Decide(1, OpMic, now)
	m.Decide(2, OpCam, now)
	audit := m.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit length = %d, want 2", len(audit))
	}
	if audit[0].Verdict != VerdictGrant || audit[1].Verdict != VerdictDeny {
		t.Fatalf("audit verdicts = %v, %v", audit[0].Verdict, audit[1].Verdict)
	}
}

func TestAuditCapacityBounded(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true, AuditCapacity: 10})
	tasks.add(1)
	for i := 0; i < 25; i++ {
		m.Decide(1, OpCopy, clk.Now())
	}
	if got := len(m.Audit()); got != 10 {
		t.Fatalf("audit length = %d, want 10", got)
	}
}

func TestStats(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(1)
	if err := m.Notify(1, clk.Now()); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	m.SetAlertFunc(func(AlertRequest) {})
	m.Decide(1, OpMic, clk.Now())
	clk.Advance(time.Minute)
	m.Decide(1, OpMic, clk.Now())
	s := m.StatsSnapshot()
	want := Stats{Notifications: 1, Queries: 2, Grants: 1, Denials: 1, AlertsSent: 2}
	if s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

func TestCustomThreshold(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true, Threshold: 500 * time.Millisecond})
	tasks.add(1)
	start := clk.Now()
	if err := m.Notify(1, start); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	if got := m.Decide(1, OpMic, start.Add(400*time.Millisecond)); got != VerdictGrant {
		t.Fatalf("within custom δ = %v, want grant", got)
	}
	if got := m.Decide(1, OpMic, start.Add(600*time.Millisecond)); got != VerdictDeny {
		t.Fatalf("beyond custom δ = %v, want deny", got)
	}
}

func TestNewValidation(t *testing.T) {
	tasks := newFakeTasks()
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New(nil tasks) succeeded")
	}
	if _, err := New(tasks, Config{Threshold: -time.Second}); err == nil {
		t.Fatal("New(negative threshold) succeeded")
	}
	if _, err := New(tasks, Config{AuditCapacity: -1}); err == nil {
		t.Fatal("New(negative audit capacity) succeeded")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictGrant.String() != "grant" || VerdictDeny.String() != "deny" {
		t.Fatal("verdict strings wrong")
	}
	if Verdict(0).String() != "Verdict(0)" {
		t.Fatalf("zero verdict string = %q", Verdict(0).String())
	}
}

// Property: for any interaction/operation offset pair, the verdict is
// grant iff the operation falls in [stamp, stamp+δ). This is the paper's
// core invariant (S1).
func TestTemporalProximityProperty(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(1)
	base := clk.Now()
	f := func(stampOffMs, opOffMs uint32) bool {
		stamp := base.Add(time.Duration(stampOffMs) * time.Millisecond)
		op := base.Add(time.Duration(opOffMs) * time.Millisecond)
		tasks.mu.Lock()
		tasks.stamps[1] = stamp // bypass newest-wins for arbitrary pairs
		tasks.mu.Unlock()
		got := m.Decide(1, OpMic, op)
		within := !op.After(stamp) || op.Sub(stamp) < m.Threshold()
		return (got == VerdictGrant) == within
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResetAudit(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true})
	tasks.add(1)
	m.Decide(1, OpCopy, clk.Now())
	m.ResetAudit()
	if len(m.Audit()) != 0 {
		t.Fatal("audit not cleared")
	}
}

// TestAuditRingBoundAndDropped pins the one-ring bound: AuditCapacity
// caps the whole log, so every pid's records compete for the same
// slots and the oldest record goes first, whoever it belongs to.
func TestAuditRingBoundAndDropped(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true, AuditCapacity: 5})
	tasks.add(1)
	tasks.add(2)
	for i := 0; i < 4; i++ {
		m.Decide(1, OpCopy, clk.Now())
	}
	m.Decide(2, OpPaste, clk.Now())
	if got := len(m.Audit()); got != 5 {
		t.Fatalf("Audit() = %d records, want 5", got)
	}
	if m.DroppedAudit() != 0 {
		t.Fatalf("dropped = %d, want 0", m.DroppedAudit())
	}
	// Overflow the ring: the two oldest records (both pid 1) go.
	m.Decide(2, OpPaste, clk.Now())
	m.Decide(2, OpPaste, clk.Now())
	if m.DroppedAudit() != 2 {
		t.Fatalf("dropped = %d, want 2", m.DroppedAudit())
	}
	if got := countPID(m.Audit(), 1); got != 2 {
		t.Fatalf("pid 1 records after eviction = %d, want 2", got)
	}
}

// TestAuditRingEvictsAcrossPIDs overflows the ring from one pid: the
// other pid's older record is evicted too, and the log keeps decision
// order.
func TestAuditRingEvictsAcrossPIDs(t *testing.T) {
	m, tasks, clk := newTestMonitor(t, Config{Enforce: true, AuditCapacity: 3})
	tasks.add(1)
	tasks.add(2)
	m.Decide(1, OpCopy, clk.Now())
	for i := 0; i < 10; i++ {
		clk.Advance(time.Millisecond)
		m.Decide(2, OpPaste, clk.Now())
	}
	all := m.Audit()
	if len(all) != 3 || countPID(all, 1) != 0 {
		t.Fatalf("Audit() = %+v, want the last 3 pid-2 records", all)
	}
	if m.DroppedAudit() != 8 {
		t.Fatalf("dropped = %d, want 8", m.DroppedAudit())
	}
	for i := 1; i < len(all); i++ {
		if !all[i].OpTime.After(all[i-1].OpTime) {
			t.Fatalf("audit out of decision order at %d", i)
		}
	}
}

func countPID(ds []Decision, pid int) int {
	n := 0
	for _, d := range ds {
		if d.PID == pid {
			n++
		}
	}
	return n
}
