// Package fleet scales Overhaul from one desktop to a machine hosting
// tens of thousands of concurrent sessions — the ROADMAP's "heavy
// traffic from millions of users" target, approached the way a
// multi-tenant deployment would run it: one orchestrator process, one
// ingress, N independent Overhaul sessions.
//
// A session is one tenant's desktop reduced to its decision core: a
// session-local process table and its own monitor.Monitor, embedded by
// value. The Monitor is the same decision engine the kernel runs, so a
// fleet decision and a desktop decision apply one rule, audit one way
// and count alerts one way. The fleet shares nothing writable between
// sessions: New validates the configuration once (decision rule, alert
// set, audit bound), and every session's Monitor is built from a copy
// of it. Interaction stamps, the audit ring, the degraded flag and the
// activity counters are owned by their session and touched by no
// other. This is the "time protection" rule (Ge et al., PAPERS.md):
// shared writable state is a timing probe between tenants, so one
// tenant hammering its decision path must not dirty a cache line
// another tenant's decision latency depends on.
//
// Sessions are plain structs — no goroutine, no channel, no clock —
// so booting 100k of them costs only memory (a few hundred bytes each
// until their lazily-allocated audit ring first fills). Traffic
// enters through Fleet.Dispatch, which routes by session ID across a
// lock-striped session table.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"overhaul/internal/monitor"
	"overhaul/internal/probe"
)

// Sentinel errors.
var (
	ErrNoSuchSession = errors.New("fleet: no such session")
	ErrSessionClosed = errors.New("fleet: session closed")
	ErrNoSuchProcess = monitor.ErrNoSuchProcess
)

// Config parameterises a Fleet.
type Config struct {
	// Policy is the shared decision rule. A zero Threshold selects
	// monitor.DefaultThreshold.
	Policy monitor.Policy
	// AuditCapacity bounds each session's audit ring. Sessions are
	// numerous, so the default is deliberately small: 64 records.
	AuditCapacity int
	// Probes, when non-nil, arms the fleet.dispatch attach point,
	// fired for every ingress request routed to a session.
	Probes *probe.Registry
}

// DefaultAuditCapacity is the per-session audit ring size. 64 records
// × ~10k sessions ≈ tens of MB worst case, and a session is one
// desktop: its recent decision history, not a datacenter log.
const DefaultAuditCapacity = 64

// sessionShards stripes the session table. Power of two; 64 stripes
// keep create/destroy of unrelated sessions off each other's locks
// even with hundreds of concurrent tenants churning.
const sessionShards = 64

type sessionShard struct {
	mu sync.RWMutex
	m  map[uint64]*Session
}

// Fleet is the orchestrator: the session configuration, the session
// table, and the ingress. Safe for concurrent use.
type Fleet struct {
	monCfg monitor.Config // every session's Monitor config; immutable after New
	// probeDispatch is the fleet.dispatch attach point, resolved once
	// at New; one atomic load per ingress request while unattached.
	probeDispatch *probe.Hook

	shards [sessionShards]sessionShard
	nextID atomic.Uint64
	live   atomic.Int64
}

// New boots an empty fleet.
func New(cfg Config) (*Fleet, error) {
	f := &Fleet{monCfg: monitor.Config{
		Threshold:     cfg.Policy.Threshold,
		ForceGrant:    cfg.Policy.Force,
		Enforce:       cfg.Policy.Enforce,
		AuditCapacity: cfg.AuditCapacity,
	}}
	if f.monCfg.AuditCapacity == 0 {
		f.monCfg.AuditCapacity = DefaultAuditCapacity
	}
	// Validated once here, so CreateSession cannot fail.
	if _, err := monitor.New(&procTable{}, f.monCfg); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f.probeDispatch = cfg.Probes.Hook(probe.HookFleetDispatch)
	for i := range f.shards {
		f.shards[i].m = make(map[uint64]*Session)
	}
	return f, nil
}

func (f *Fleet) shard(id uint64) *sessionShard {
	return &f.shards[id&(sessionShards-1)]
}

// CreateSession boots one new session and returns it. Cost: one struct
// allocation (the Monitor is embedded) and one striped-map insert — no
// goroutine, no clock, no pre-sized buffers.
func (f *Fleet) CreateSession() *Session {
	s := &Session{id: f.nextID.Add(1)}
	_ = s.mon.Init(&s.procs, f.monCfg) // cannot fail: New validated f.monCfg
	s.mon.SetAlertFunc(dropAlert)
	sh := f.shard(s.id)
	sh.mu.Lock()
	sh.m[s.id] = s
	sh.mu.Unlock()
	f.live.Add(1)
	return s
}

// Session resolves a live session by ID.
func (f *Fleet) Session(id uint64) (*Session, bool) {
	sh := f.shard(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	return s, ok
}

// CloseSession tears a session down: it is removed from the ingress
// and every subsequent operation on it fails with ErrSessionClosed.
// Its partitioned state goes away with it — nothing a departed tenant
// wrote survives where a future tenant could read it.
func (f *Fleet) CloseSession(id uint64) error {
	sh := f.shard(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("close session %d: %w", id, ErrNoSuchSession)
	}
	s.closed.Store(true)
	f.live.Add(-1)
	return nil
}

// Size returns the number of live sessions.
func (f *Fleet) Size() int { return int(f.live.Load()) }

// SessionIDs returns the live session IDs in unspecified order.
func (f *Fleet) SessionIDs() []uint64 {
	out := make([]uint64, 0, f.Size())
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// ForEachSession visits every live session. The visit runs without the
// shard lock held, so visitors may call back into the fleet.
func (f *Fleet) ForEachSession(visit func(*Session)) {
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		batch := make([]*Session, 0, len(sh.m))
		for _, s := range sh.m {
			batch = append(batch, s)
		}
		sh.mu.RUnlock()
		for _, s := range batch {
			visit(s)
		}
	}
}

// FleetStats aggregates activity across every live session.
type FleetStats struct {
	Sessions      int
	Notifications uint64
	Grants        uint64
	Denials       uint64
	Spawns        uint64
	Exits         uint64
	DroppedAudit  uint64
}

// StatsSnapshot sums the per-session counters into a fleet-wide view.
func (f *Fleet) StatsSnapshot() FleetStats {
	out := FleetStats{Sessions: f.Size()}
	f.ForEachSession(func(s *Session) {
		st := s.StatsSnapshot()
		out.Notifications += st.Notifications
		out.Grants += st.Grants
		out.Denials += st.Denials
		out.Spawns += st.Spawns
		out.Exits += st.Exits
		out.DroppedAudit += st.DroppedAudit
	})
	return out
}

// RequestKind selects the ingress operation.
type RequestKind int

// Ingress operations: the two message classes of the netlink protocol,
// N_{A,t} and Q_{A,t}, addressed by session.
const (
	RequestNotify RequestKind = iota + 1
	RequestDecide
)

// Request is one unit of ingress traffic, routed by SessionID.
type Request struct {
	SessionID uint64
	Kind      RequestKind
	PID       int
	Op        monitor.Op
	Time      int64 // unix nanoseconds (stamp time for Notify, op time for Decide)
}

// Dispatch routes one request to its session: the fleet's single
// ingress. Decide requests return the verdict; Notify requests return
// verdict 0. Dispatch performs no allocation on the Decide hot path,
// which is what BenchmarkFleetDecide pins.
func (f *Fleet) Dispatch(req Request) (monitor.Verdict, error) {
	s, ok := f.Session(req.SessionID)
	if !ok {
		return 0, ErrNoSuchSession
	}
	var (
		v   monitor.Verdict
		err error
	)
	switch req.Kind {
	case RequestNotify:
		err = s.NotifyNanos(req.PID, req.Time)
	case RequestDecide:
		v, err = s.DecideNanos(req.PID, req.Op, req.Time)
	default:
		return 0, fmt.Errorf("fleet: unknown request kind %d", req.Kind)
	}
	if f.probeDispatch.Wants(int64(req.PID)) {
		ev := probe.Event{
			TimeNanos: req.Time,
			Session:   req.SessionID,
			PID:       int64(req.PID),
			Kind:      probe.KindDispatch,
			Dev:       probe.DevOf(string(req.Op)),
		}
		switch v {
		case monitor.VerdictGrant:
			ev.Verdict = probe.VerdictGrant
		case monitor.VerdictDeny:
			ev.Verdict = probe.VerdictDeny
		}
		f.probeDispatch.Emit(&ev)
	}
	return v, err
}
