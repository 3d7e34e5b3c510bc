package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"overhaul/internal/ipc"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// Session is one tenant's Overhaul desktop reduced to its decision
// core: a private process table and a private monitor.Monitor deciding
// against it. The Monitor owns the degraded flag, the audit ring and the
// decision counters; the session adds only its lifecycle and process
// bookkeeping. It is a plain struct — no goroutine, no channel, no
// clock — so a fleet can hold 100k of them. All methods are safe for
// concurrent use.
type Session struct {
	id      uint64
	closed  atomic.Bool
	nextPID atomic.Int64
	spawns  atomic.Uint64
	exits   atomic.Uint64
	procs   procTable
	mon     monitor.Monitor // over &procs; no probes, no telemetry
}

// procTable is a session's process table: one interaction-stamp cell
// per pid. It is the task store the session's Monitor decides against.
// The kernel's task structs, its IPC objects and the fleet all hold an
// ipc.StampSlot, so the newest-wins CAS-max semantics cannot drift
// between the paths.
type procTable struct {
	mu    sync.RWMutex
	slots map[int]*ipc.StampSlot
}

var _ monitor.TaskStore = (*procTable)(nil)

// slot returns pid's stamp cell, or nil if pid does not exist.
func (t *procTable) slot(pid int) *ipc.StampSlot {
	t.mu.RLock()
	p := t.slots[pid]
	t.mu.RUnlock()
	return p
}

// InteractionView implements monitor.TaskStore. Sessions carry no
// ptrace state: the guard is a single-desktop debugging defence, and a
// fleet tenant's debugger lives inside the tenant.
func (t *procTable) InteractionView(pid int) (time.Time, probe.SpanContext, bool, bool) {
	p := t.slot(pid)
	if p == nil {
		return time.Time{}, probe.SpanContext{}, false, false
	}
	stamp, ctx := p.Stamp()
	return stamp, ctx, false, true
}

// SetInteractionStampSpan implements monitor.TaskStore with the
// kernel's lock-free newest-wins CAS-max.
func (t *procTable) SetInteractionStampSpan(pid int, ts time.Time, ctx probe.SpanContext) error {
	p := t.slot(pid)
	if p == nil {
		return ErrNoSuchProcess
	}
	p.Adopt(ts, ctx)
	return nil
}

// add installs a new pid with the given stamp cell.
func (t *procTable) add(pid int, slot *ipc.StampSlot) {
	t.mu.Lock()
	if t.slots == nil {
		t.slots = make(map[int]*ipc.StampSlot)
	}
	t.slots[pid] = slot
	t.mu.Unlock()
}

// dropAlert is every session's alert sink. A real deployment routes
// the V_{A,op} alert to the tenant's own display server; the fleet core
// drops it, and the Monitor still counts every alert that was due.
func dropAlert(monitor.AlertRequest) {}

// SessionStats is the exported snapshot of one session's counters.
// Alerts counts decisions on alert-set ops, granted or blocked.
type SessionStats struct {
	Notifications uint64
	Grants        uint64
	Denials       uint64
	Alerts        uint64
	Spawns        uint64
	Exits         uint64
	DroppedAudit  uint64
}

// ID returns the session identifier.
func (s *Session) ID() uint64 { return s.id }

// Closed reports whether the session has been torn down.
func (s *Session) Closed() bool { return s.closed.Load() }

// SetAuditSink attaches a callback that receives every decision the
// session audits, in audit order — the bridge from the bounded
// per-session ring to a durable store (auditstore.BatchSink). Nil
// detaches. See monitor.Monitor.SetAuditSink.
func (s *Session) SetAuditSink(fn func(monitor.Decision)) { s.mon.SetAuditSink(fn) }

// SetDegraded flips this session into fail-closed degraded mode: one
// tenant's broken channel degrades that tenant only.
func (s *Session) SetDegraded(reason string) { s.mon.SetDegraded(reason) }

// ClearDegraded returns the session to normal operation.
func (s *Session) ClearDegraded() { s.mon.ClearDegraded() }

// DegradedReason returns the degradation reason and whether the
// session is currently degraded.
func (s *Session) DegradedReason() (string, bool) { return s.mon.DegradedReason() }

// Spawn creates a fresh process in this session with no interaction
// history and returns its pid (pids are session-local).
func (s *Session) Spawn() (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	pid := int(s.nextPID.Add(1))
	s.procs.add(pid, &ipc.StampSlot{})
	s.spawns.Add(1)
	return pid, nil
}

// Fork duplicates parent into a new process, inheriting its
// interaction stamp and minting span — propagation policy P1, same as
// the kernel's fork.
func (s *Session) Fork(parent int) (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	pp := s.procs.slot(parent)
	if pp == nil {
		return 0, fmt.Errorf("session %d fork from pid %d: %w", s.id, parent, ErrNoSuchProcess)
	}
	pid := int(s.nextPID.Add(1))
	child := &ipc.StampSlot{}
	child.Inherit(pp)
	s.procs.add(pid, child)
	s.spawns.Add(1)
	return pid, nil
}

// Exit removes a process from the session.
func (s *Session) Exit(pid int) error {
	s.procs.mu.Lock()
	_, ok := s.procs.slots[pid]
	delete(s.procs.slots, pid)
	s.procs.mu.Unlock()
	if !ok {
		return fmt.Errorf("session %d exit pid %d: %w", s.id, pid, ErrNoSuchProcess)
	}
	s.exits.Add(1)
	return nil
}

// PIDCount returns the number of live processes in the session.
func (s *Session) PIDCount() int {
	s.procs.mu.RLock()
	defer s.procs.mu.RUnlock()
	return len(s.procs.slots)
}

// Notify records an interaction notification N_{A,t} for pid.
func (s *Session) Notify(pid int, t time.Time) error {
	return s.NotifyNanos(pid, t.UnixNano())
}

// NotifyNanos is Notify with the stamp as unix nanoseconds (the wire
// form the ingress carries).
func (s *Session) NotifyNanos(pid int, nanos int64) error {
	if s.closed.Load() {
		return ErrSessionClosed
	}
	return s.mon.Notify(pid, time.Unix(0, nanos).UTC())
}

// Decide answers a permission query Q_{A,t} through the session's
// Monitor, appending to the session's audit ring.
func (s *Session) Decide(pid int, op monitor.Op, opTime time.Time) (monitor.Verdict, error) {
	return s.DecideNanos(pid, op, opTime.UnixNano())
}

// DecideNanos is Decide with the op time as unix nanoseconds. It is
// the fleet's hot path: zero allocations in steady state.
func (s *Session) DecideNanos(pid int, op monitor.Op, nanos int64) (monitor.Verdict, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	return s.mon.Decide(pid, op, time.Unix(0, nanos).UTC()), nil
}

// Audit returns a copy of the session's audit ring, oldest first.
func (s *Session) Audit() []monitor.Decision { return s.mon.Audit() }

// DroppedAudit reports how many audit records this session evicted.
func (s *Session) DroppedAudit() uint64 { return s.mon.DroppedAudit() }

// StatsSnapshot returns a copy of the session counters.
func (s *Session) StatsSnapshot() SessionStats {
	st := s.mon.StatsSnapshot()
	return SessionStats{
		Notifications: st.Notifications,
		Grants:        st.Grants,
		Denials:       st.Denials,
		Alerts:        st.AlertsSent,
		Spawns:        s.spawns.Load(),
		Exits:         s.exits.Load(),
		DroppedAudit:  s.mon.DroppedAudit(),
	}
}
