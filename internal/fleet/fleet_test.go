package fleet

import (
	"errors"
	"testing"
	"time"

	"overhaul/internal/monitor"
)

// base is the test time origin: simulated clocks in this tree start at
// the 2016 epoch, and the fleet only ever sees instants, so any fixed
// post-2016 base works.
var base = time.Date(2016, time.March, 1, 9, 0, 0, 0, time.UTC)

func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	if cfg.Policy == (monitor.Policy{}) {
		cfg.Policy = monitor.Policy{Enforce: true}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// spawnStamped creates a session with one process stamped at base.
func spawnStamped(t *testing.T, f *Fleet) (*Session, int) {
	t.Helper()
	s := f.CreateSession()
	pid, err := s.Spawn()
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := s.Notify(pid, base); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	return s, pid
}

func TestSessionDecideTemporalProximity(t *testing.T) {
	f := newTestFleet(t, Config{})
	s, pid := spawnStamped(t, f)

	v, err := s.Decide(pid, monitor.OpMic, base.Add(time.Second))
	if err != nil || v != monitor.VerdictGrant {
		t.Errorf("within δ: verdict %v err %v, want grant", v, err)
	}
	v, err = s.Decide(pid, monitor.OpMic, base.Add(3*time.Second))
	if err != nil || v != monitor.VerdictDeny {
		t.Errorf("stale: verdict %v err %v, want deny", v, err)
	}
	audit := s.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit has %d records, want 2", len(audit))
	}
	if audit[0].Reason != monitor.ReasonWithinDelta {
		t.Errorf("grant reason %q, want %q", audit[0].Reason, monitor.ReasonWithinDelta)
	}
}

func TestSessionForkInheritsStamp(t *testing.T) {
	f := newTestFleet(t, Config{})
	s, pid := spawnStamped(t, f)
	child, err := s.Fork(pid)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if v, _ := s.Decide(child, monitor.OpCam, base.Add(time.Second)); v != monitor.VerdictGrant {
		t.Errorf("child denied despite inherited stamp (P1)")
	}
	orphan, err := s.Spawn()
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if v, _ := s.Decide(orphan, monitor.OpCam, base.Add(time.Second)); v != monitor.VerdictDeny {
		t.Errorf("fresh process granted without interaction")
	}
}

func TestSessionExitAndMissingProcess(t *testing.T) {
	f := newTestFleet(t, Config{})
	s, pid := spawnStamped(t, f)
	if err := s.Exit(pid); err != nil {
		t.Fatalf("Exit: %v", err)
	}
	if err := s.Exit(pid); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("double exit error = %v, want ErrNoSuchProcess", err)
	}
	v, err := s.Decide(pid, monitor.OpMic, base.Add(time.Second))
	if err != nil || v != monitor.VerdictDeny {
		t.Errorf("decide on exited pid: verdict %v err %v, want deny", v, err)
	}
	if a := s.Audit(); a[len(a)-1].Reason != monitor.ReasonNoSuchProcess {
		t.Errorf("reason %q, want %q", a[len(a)-1].Reason, monitor.ReasonNoSuchProcess)
	}
	if err := s.Notify(pid, base); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("notify exited pid error = %v, want ErrNoSuchProcess", err)
	}
}

func TestSessionDegradedFailClosed(t *testing.T) {
	f := newTestFleet(t, Config{})
	s, pid := spawnStamped(t, f)
	s.SetDegraded("netlink channel lost")
	v, err := s.Decide(pid, monitor.OpMic, base.Add(time.Second))
	if err != nil || v != monitor.VerdictDeny {
		t.Fatalf("degraded decide: verdict %v err %v, want deny", v, err)
	}
	a := s.Audit()
	last := a[len(a)-1]
	if !last.Degraded || last.Reason != "protection degraded: netlink channel lost" {
		t.Errorf("degraded record %+v", last)
	}
	s.ClearDegraded()
	if v, _ := s.Decide(pid, monitor.OpMic, base.Add(time.Second)); v != monitor.VerdictGrant {
		t.Errorf("still denying after ClearDegraded")
	}
}

func TestSessionDegradationIsPartitioned(t *testing.T) {
	f := newTestFleet(t, Config{})
	sick, sickPid := spawnStamped(t, f)
	healthy, healthyPid := spawnStamped(t, f)
	sick.SetDegraded("tenant channel down")
	if v, _ := sick.Decide(sickPid, monitor.OpMic, base.Add(time.Second)); v != monitor.VerdictDeny {
		t.Errorf("sick session granted while degraded")
	}
	if v, _ := healthy.Decide(healthyPid, monitor.OpMic, base.Add(time.Second)); v != monitor.VerdictGrant {
		t.Errorf("healthy session denied by another tenant's degradation")
	}
}

func TestFleetDispatchRouting(t *testing.T) {
	f := newTestFleet(t, Config{})
	s1, pid1 := spawnStamped(t, f)
	s2, pid2 := spawnStamped(t, f)

	// Stamp only session 1's pid freshly; session 2 decides stale.
	if _, err := f.Dispatch(Request{SessionID: s1.ID(), Kind: RequestNotify, PID: pid1, Time: base.Add(5 * time.Second).UnixNano()}); err != nil {
		t.Fatalf("Dispatch notify: %v", err)
	}
	v, err := f.Dispatch(Request{SessionID: s1.ID(), Kind: RequestDecide, PID: pid1, Op: monitor.OpMic, Time: base.Add(6 * time.Second).UnixNano()})
	if err != nil || v != monitor.VerdictGrant {
		t.Errorf("session 1 decide: verdict %v err %v, want grant", v, err)
	}
	v, err = f.Dispatch(Request{SessionID: s2.ID(), Kind: RequestDecide, PID: pid2, Op: monitor.OpMic, Time: base.Add(6 * time.Second).UnixNano()})
	if err != nil || v != monitor.VerdictDeny {
		t.Errorf("session 2 decide: verdict %v err %v, want deny (stale)", v, err)
	}
	if _, err := f.Dispatch(Request{SessionID: 999999, Kind: RequestDecide, PID: 1, Op: monitor.OpMic, Time: base.UnixNano()}); !errors.Is(err, ErrNoSuchSession) {
		t.Errorf("unknown session error = %v, want ErrNoSuchSession", err)
	}
}

func TestCloseSession(t *testing.T) {
	f := newTestFleet(t, Config{})
	s, pid := spawnStamped(t, f)
	if got := f.Size(); got != 1 {
		t.Fatalf("Size = %d, want 1", got)
	}
	if err := f.CloseSession(s.ID()); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if got := f.Size(); got != 0 {
		t.Errorf("Size after close = %d, want 0", got)
	}
	if err := f.CloseSession(s.ID()); !errors.Is(err, ErrNoSuchSession) {
		t.Errorf("double close error = %v, want ErrNoSuchSession", err)
	}
	if _, err := s.Decide(pid, monitor.OpMic, base); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("decide on closed session error = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Spawn(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("spawn on closed session error = %v, want ErrSessionClosed", err)
	}
}

func TestAuditRingDrops(t *testing.T) {
	f := newTestFleet(t, Config{AuditCapacity: 4})
	s, pid := spawnStamped(t, f)
	for i := 0; i < 10; i++ {
		if _, err := s.Decide(pid, monitor.OpMic, base.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}
	a := s.Audit()
	if len(a) != 4 {
		t.Fatalf("audit has %d records, want cap 4", len(a))
	}
	if got := s.DroppedAudit(); got != 6 {
		t.Errorf("DroppedAudit = %d, want 6", got)
	}
	if a[0].OpTime != base.Add(6*time.Millisecond) {
		t.Errorf("oldest surviving record at %v, want the 7th decision", a[0].OpTime)
	}
}

func TestFleetStatsAggregation(t *testing.T) {
	f := newTestFleet(t, Config{})
	for i := 0; i < 3; i++ {
		s, pid := spawnStamped(t, f)
		if _, err := s.Decide(pid, monitor.OpMic, base.Add(time.Second)); err != nil { // grant
			t.Fatalf("Decide: %v", err)
		}
		if _, err := s.Decide(pid, monitor.OpMic, base.Add(time.Hour)); err != nil { // deny
			t.Fatalf("Decide: %v", err)
		}
	}
	st := f.StatsSnapshot()
	if st.Sessions != 3 || st.Grants != 3 || st.Denials != 3 || st.Notifications != 3 || st.Spawns != 3 {
		t.Errorf("fleet stats %+v", st)
	}
}

// TestDecideSteadyStateZeroAlloc pins the fleet hot path: once the
// audit ring is warm, a Dispatch'd Decide allocates nothing — the
// property that lets one machine push millions of decisions without
// allocator pressure scaling with session count.
func TestDecideSteadyStateZeroAlloc(t *testing.T) {
	f := newTestFleet(t, Config{})
	s, pid := spawnStamped(t, f)
	req := Request{SessionID: s.ID(), Kind: RequestDecide, PID: pid, Op: monitor.OpMic, Time: base.Add(time.Second).UnixNano()}
	for i := 0; i < 2*DefaultAuditCapacity; i++ {
		if _, err := f.Dispatch(req); err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := f.Dispatch(req); err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
	}); avg != 0 {
		t.Errorf("fleet Decide allocates %.2f times per op, want 0", avg)
	}
}
