// Package monitor implements Overhaul's kernel permission monitor.
//
// The permission monitor (paper §III-B, §IV-B) is the component that
// makes every access-control decision. It records *interaction
// notifications* — "process P received authentic hardware input at time
// T" — pushed by the display manager over the authenticated channel, and
// answers *permission queries* by correlating a privileged operation's
// timestamp with the target process's most recent interaction: the
// operation is granted iff it falls within a configurable temporal
// proximity threshold δ of the interaction (the paper empirically
// settles on δ = 2 s).
//
// Following the paper's implementation, interaction timestamps live in
// the process table itself (the task_struct analogue), so the monitor
// operates on a TaskStore interface implemented by the kernel; the
// monitor owns the decision logic, the audit log, and alert dispatch.
// It is the one decision engine in the tree: a fleet session embeds
// its own Monitor over a session-local TaskStore.
//
// Mode flags (degraded, alert sink) and activity counters are atomics,
// and the decision path is observed only through its probe hooks. The
// one lock a decision takes is the audit ring's: a single
// bounded ring of AuditCapacity records, filled in place. The monitor
// reads no clock: every instant arrives with the notification or query.
package monitor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"overhaul/internal/probe"
)

// DefaultThreshold is δ, the temporal proximity window. The paper found
// <1 s causes false denials while 2 s never broke legitimate programs
// over a 21-day deployment.
const DefaultThreshold = 2 * time.Second

// Op names a privileged operation class, matching the paper's
// op ∈ {copy, paste, scr, mic, cam}.
type Op string

// Privileged operations mediated by Overhaul.
const (
	OpCopy   Op = "copy"
	OpPaste  Op = "paste"
	OpScreen Op = "scr"
	OpMic    Op = "mic"
	OpCam    Op = "cam"
	OpOther  Op = "dev" // any other sensitive device class
)

// Verdict is the outcome of a permission query.
type Verdict int

// Verdicts. Enums start at one so the zero value is invalid.
const (
	VerdictGrant Verdict = iota + 1
	VerdictDeny
)

// String returns "grant" or "deny".
func (v Verdict) String() string {
	switch v {
	case VerdictGrant:
		return "grant"
	case VerdictDeny:
		return "deny"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// TaskStore is the kernel-side process table view the monitor needs:
// where interaction stamps live, which trace span minted each stamp,
// and whether a process's permissions are administratively disabled
// (the ptrace guard).
type TaskStore interface {
	// InteractionView returns pid's most recent authentic-interaction
	// time, the span that minted it, and whether its permissions are
	// force-disabled. ok is false if the process does not exist.
	InteractionView(pid int) (stamp time.Time, ctx probe.SpanContext, disabled bool, ok bool)
	// SetInteractionStampSpan records an interaction time for pid
	// together with the span that delivered it, only if newer than the
	// currently stored stamp (the span travels with the stamp,
	// newest-wins as one unit).
	SetInteractionStampSpan(pid int, t time.Time, ctx probe.SpanContext) error
}

// AlertRequest asks the display manager to show a trusted-output visual
// alert: "process PID performed Op" (V_{A,op} in the paper), or — for
// Blocked requests — that an undesired access attempt was stopped (the
// §V-B user-study scenario: a hidden camera access is blocked *and* the
// user is alerted). Degraded requests carry the distinct
// protection-degraded wording: the denial happened because the
// mediation path itself is broken, not because the stamp was stale.
type AlertRequest struct {
	PID      int
	Op       Op
	Time     time.Time
	Blocked  bool
	Degraded bool
	// Ctx is the decision span that raised the alert; the display
	// manager parents the render span on it so one trace covers input →
	// decision → alert. Zero when the decision was not traced.
	Ctx probe.SpanContext
}

// AlertFunc delivers an AlertRequest to the display manager. It is
// called synchronously from Decide; implementations route it over the
// authenticated netlink channel.
type AlertFunc func(AlertRequest)

// Decision records one permission query and its outcome.
type Decision struct {
	PID     int
	Op      Op
	OpTime  time.Time
	Stamp   time.Time // interaction stamp consulted (zero if none)
	Verdict Verdict
	Reason  string
	// Degraded marks denials issued while the monitor was in degraded
	// (fail-closed) mode rather than by the temporal-proximity rule.
	Degraded bool
}

// ErrNoSuchProcess is returned by Notify for unknown PIDs.
var ErrNoSuchProcess = errors.New("no such process")

// Config parameterises the monitor.
type Config struct {
	// Threshold is δ. Zero means DefaultThreshold.
	Threshold time.Duration
	// ForceGrant short-circuits every decision to grant while still
	// exercising the full decision path. The paper enables this mode
	// for the Table I performance measurements so that benchmarks
	// measure the complete grant path without real user input.
	ForceGrant bool
	// Enforce controls whether deny verdicts are produced at all.
	// When false the monitor runs in observe-only mode: decisions and
	// audit records are produced but everything is granted. Used by
	// the unprotected baseline machine in the §V-D experiment.
	Enforce bool
	// AuditCapacity bounds the audit ring (oldest records are dropped).
	// Zero means DefaultAuditCapacity.
	AuditCapacity int
	// Probes, when non-nil, arms the monitor's probe attach points
	// (monitor.evaluate, monitor.notify, kernel.decide,
	// and the degrade and recover points). Nil leaves the hooks
	// unresolved; each attach point then costs a single nil check on
	// the decision path.
	Probes *probe.Registry
}

// DefaultAuditCapacity is the audit ring size when Config leaves it 0.
const DefaultAuditCapacity = 1024

// alertOps is the set of operations whose decisions raise a visual
// alert from the kernel side (V_{A,op} over the netlink channel),
// indexed by opIndex so the decision path tests membership without
// hashing the op string. It covers the kernel-mediated devices: mic,
// cam and other. Screen capture alerts are raised by the display
// manager directly (it can identify the requesting process without
// kernel assistance, §III-C), and clipboard operations are silent but
// logged (usability, §V-C).
var alertOps = [6]bool{3: true, 4: true, 5: true} // OpMic, OpCam, OpOther

// auditRing is the audit log: one bounded ring under one lock, filled
// in place so the hot path never allocates once the ring exists.
type auditRing struct {
	mu      sync.Mutex
	ring    []Decision // capacity Monitor.auditCap, allocated lazily
	head    int        // index of the oldest record
	n       int
	dropped uint64
	sink    func(Decision) // SetAuditSink; called under mu
}

// monitorStats are the activity counters, all atomics so the decision
// path never locks to count. Queries are not counted separately:
// every query resolves to exactly one of grant or deny, so the total
// is derived at snapshot time and the hot path pays one atomic
// increment instead of two.
type monitorStats struct {
	notifications   atomic.Uint64
	grants          atomic.Uint64
	denials         atomic.Uint64
	alertsSent      atomic.Uint64
	degradedDenials atomic.Uint64
}

// opIndex maps a known op to its dense index in {copy, paste, scr,
// mic, cam, dev} order, -1 for unknown ops. The decision path indexes
// its lookup tables with it: a string switch compiles to a length
// bucket plus a constant compare, which profiles measurably cheaper
// than hashing the op into a map on every decision.
func opIndex(op Op) int {
	switch op {
	case OpCopy:
		return 0
	case OpPaste:
		return 1
	case OpScreen:
		return 2
	case OpMic:
		return 3
	case OpCam:
		return 4
	case OpOther:
		return 5
	}
	return -1
}

// Monitor is the kernel permission monitor. It is safe for concurrent
// use; see the package comment for what a decision locks.
type Monitor struct {
	tasks     TaskStore
	threshold time.Duration
	force     bool
	enforce   bool
	auditCap  int

	// Probe attach points, resolved once at construction. Each costs
	// one atomic load per decision while unattached (nil when the
	// monitor was built without a probe registry: one nil check).
	probeEval    *probe.Hook // monitor.evaluate: the decide span
	probeNotify  *probe.Hook // monitor.notify
	probeDecide  *probe.Hook // kernel.decide
	probeDegrade *probe.Hook // system.degrade
	probeRecover *probe.Hook // system.recover

	alertFn  atomic.Value           // AlertFunc (typed nil disables)
	degraded atomic.Pointer[string] // nil: healthy; else fail-closed reason
	stats    monitorStats
	audit    auditRing
}

// Stats aggregates monitor activity.
type Stats struct {
	Notifications   uint64
	Queries         uint64
	Grants          uint64
	Denials         uint64
	AlertsSent      uint64
	DegradedDenials uint64
}

// New constructs a Monitor over the given task store.
func New(tasks TaskStore, cfg Config) (*Monitor, error) {
	m := new(Monitor)
	if err := m.Init(tasks, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Init sets up a zero Monitor in place. It is New for owners that embed
// the monitor by value, such as a fleet session, so booting one costs
// no allocation of its own. Call it once, before any other method.
func (m *Monitor) Init(tasks TaskStore, cfg Config) error {
	if tasks == nil {
		return errors.New("monitor: nil task store")
	}
	m.threshold = cfg.Threshold
	if m.threshold == 0 {
		m.threshold = DefaultThreshold
	}
	if m.threshold < 0 {
		return fmt.Errorf("monitor: negative threshold %v", m.threshold)
	}
	m.auditCap = cfg.AuditCapacity
	if m.auditCap == 0 {
		m.auditCap = DefaultAuditCapacity
	}
	if m.auditCap < 0 {
		return fmt.Errorf("monitor: negative audit capacity %d", m.auditCap)
	}
	m.tasks = tasks
	m.force = cfg.ForceGrant
	m.enforce = cfg.Enforce
	reg := cfg.Probes
	m.probeEval = reg.Hook(probe.HookMonitorEvaluate)
	m.probeNotify = reg.Hook(probe.HookMonitorNotify)
	m.probeDecide = reg.Hook(probe.HookKernelDecide)
	m.probeDegrade = reg.Hook(probe.HookDegrade)
	m.probeRecover = reg.Hook(probe.HookRecover)
	return nil
}

// Threshold returns δ.
func (m *Monitor) Threshold() time.Duration { return m.threshold }

// SetAlertFunc installs the trusted-output alert sink. Passing nil
// disables alert dispatch.
func (m *Monitor) SetAlertFunc(fn AlertFunc) {
	m.alertFn.Store(fn)
}

// alertSink returns the installed alert sink, or nil.
func (m *Monitor) alertSink() AlertFunc {
	fn, _ := m.alertFn.Load().(AlertFunc)
	return fn
}

// Notify records an interaction notification N_{A,t}: authentic user
// input was delivered to pid at time t. Only the display manager may
// invoke this (enforced by channel authentication one layer up).
func (m *Monitor) Notify(pid int, t time.Time) error {
	return m.NotifyCtx(probe.SpanContext{}, pid, t)
}

// NotifyCtx is Notify carrying the trace context of the input event
// that caused the notification. The notify span is stored in the task
// struct alongside the stamp it mints, so a later permission query
// within δ links back to this interaction.
//
// Against a sharded store the stamp write is a lock-free CAS-max; this
// method itself takes no lock either.
func (m *Monitor) NotifyCtx(ctx probe.SpanContext, pid int, t time.Time) error {
	sp := probe.Event{Kind: probe.KindNotify, PID: int64(pid), StampNanos: t.UnixNano()}
	m.probeNotify.Begin(ctx, &sp)
	defer m.probeNotify.End(&sp)
	if err := m.tasks.SetInteractionStampSpan(pid, t, sp.Ctx); err != nil {
		if sp.Ctx.Valid() {
			sp.Reason = err.Error()
		}
		return fmt.Errorf("monitor notify pid %d: %w", pid, err)
	}
	m.stats.notifications.Add(1)
	return nil
}

// SetDegraded switches the monitor into fail-closed degraded mode:
// every subsequent decision denies with a distinct
// "protection degraded" reason until ClearDegraded. The core flips
// this when a trusted component the decision path depends on — in
// practice the netlink channel — is detected dead: a monitor that
// cannot reach its sensors' user must block the sensors.
func (m *Monitor) SetDegraded(reason string) {
	if reason == "" {
		reason = "trusted component failure"
	}
	m.degraded.Store(&reason)
	if m.probeDegrade.Wants(0) {
		m.probeDegrade.Emit(&probe.Event{Kind: probe.KindDegrade, Detail: "monitor", Reason: "protection degraded: " + reason})
	}
}

// ClearDegraded returns the monitor to normal operation (the channel
// was re-established).
func (m *Monitor) ClearDegraded() {
	m.degraded.Store(nil)
	if m.probeRecover.Wants(0) {
		m.probeRecover.Emit(&probe.Event{Kind: probe.KindRecover, Detail: "monitor", Reason: "degraded mode cleared"})
	}
}

// DegradedReason returns the degradation reason and whether the
// monitor is currently degraded.
func (m *Monitor) DegradedReason() (string, bool) {
	if p := m.degraded.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// probeDevs maps opIndex to the probe-layer device class.
var probeDevs = [6]probe.Dev{
	probe.DevCopy, probe.DevPaste, probe.DevScreen,
	probe.DevMic, probe.DevCam, probe.DevOther,
}

// probeEvent flattens a decision, emitted under ctx, into the zero
// event ev, carrying the decision's own reason string. An op outside
// the known vocabulary has no device class; its name rides in Detail.
// Filled in place: events are wide enough that building one and
// copying it out shows up on the decision path.
func probeEvent(ev *probe.Event, kind probe.Kind, ctx probe.SpanContext, d *Decision) {
	ev.TimeNanos, ev.PID, ev.Kind, ev.Ctx, ev.Reason = d.OpTime.UnixNano(), int64(d.PID), kind, ctx, d.Reason
	if !d.Stamp.IsZero() {
		ev.StampNanos = d.Stamp.UnixNano()
	}
	if i := opIndex(d.Op); i >= 0 {
		ev.Dev = probeDevs[i]
	} else {
		ev.Detail = string(d.Op)
	}
	switch d.Verdict {
	case VerdictGrant:
		ev.Verdict = probe.VerdictGrant
	case VerdictDeny:
		ev.Verdict = probe.VerdictDeny
	}
}

// SetAuditSink attaches a callback that receives every decision the
// monitor audits, in ring order — the bridge from the bounded ring to a
// durable store (auditstore.BatchSink). Nil detaches. The callback runs
// under the ring lock and must not block or call back into the monitor.
func (m *Monitor) SetAuditSink(fn func(Decision)) {
	m.audit.mu.Lock()
	m.audit.sink = fn
	m.audit.mu.Unlock()
}

// appendAudit appends one decision to the audit ring, oldest-out, and
// forwards it to the audit sink when one is attached.
func (m *Monitor) appendAudit(d *Decision) {
	a := &m.audit
	a.mu.Lock()
	if a.ring == nil {
		// Grown lazily but allocated once: the ring must not churn the
		// allocator on the hot decision path.
		a.ring = make([]Decision, m.auditCap)
	}
	var e *Decision
	if a.n == m.auditCap {
		e = &a.ring[a.head]
		a.head = (a.head + 1) % m.auditCap
		a.dropped++
	} else {
		e = &a.ring[(a.head+a.n)%m.auditCap]
		a.n++
	}
	// Filled in place under the lock: the Decision is wide enough that
	// an extra construct-then-copy shows up in profiles.
	*e = *d
	if a.sink != nil {
		a.sink(*d)
	}
	a.mu.Unlock()
}

// Decide answers a permission query Q_{A,t}: may pid perform op at
// opTime? It consults the process's interaction stamp, applies the
// temporal-proximity rule, appends an audit record, and — for
// operations in the alert set, granted or blocked — dispatches a visual
// alert request.
// While the monitor is degraded, every query denies (fail closed) with
// the distinct protection-degraded reason.
func (m *Monitor) Decide(pid int, op Op, opTime time.Time) Verdict {
	return m.DecideCtx(probe.SpanContext{}, pid, op, opTime)
}

// DecideCtx is Decide carrying the trace context of the event that
// triggered the query (typically the kernel open span, itself parented
// on the interaction that minted the process's stamp). It allocates
// nothing, whatever is attached to its hooks: verified by the
// TelemetryDisabled, TelemetryEnabled and ProbeAttached benchmarks.
func (m *Monitor) DecideCtx(ctx probe.SpanContext, pid int, op Op, opTime time.Time) Verdict {
	// One read of the task store up front: against the kernel's sharded
	// table that is a handful of atomic loads.
	stamp, sc, disabled, exists := m.tasks.InteractionView(pid)
	if !ctx.Valid() {
		// No explicit parent: join the trace of the interaction that
		// minted the process's current stamp. This is what connects a
		// bare Decide to its enabling input.
		ctx = sc
	}

	degraded := ""
	if p := m.degraded.Load(); p != nil {
		degraded = *p
	}

	pol := Policy{Threshold: m.threshold, Force: m.force, Enforce: m.enforce}
	verdict, reason := pol.Evaluate(Query{
		OpTime:   opTime,
		Stamp:    stamp,
		Degraded: degraded,
		Exists:   exists,
		Disabled: disabled,
	})

	isDegraded := pol.DegradedDenial(degraded)
	d := Decision{PID: pid, Op: op, OpTime: opTime, Stamp: stamp, Verdict: verdict, Reason: reason, Degraded: isDegraded}
	// The decide span opens on the rule's verdict and closes once the
	// alert round trip is done.
	var span probe.SpanContext
	if m.probeEval.Wants(int64(pid)) {
		var sp probe.Event
		probeEvent(&sp, probe.KindEvaluate, probe.SpanContext{}, &d)
		m.probeEval.Begin(ctx, &sp)
		defer m.probeEval.End(&sp)
		span = sp.Ctx
	}

	if verdict == VerdictGrant {
		m.stats.grants.Add(1)
	} else {
		m.stats.denials.Add(1)
		if isDegraded {
			m.stats.degradedDenials.Add(1)
		}
	}
	m.appendAudit(&d)
	if m.probeDecide.Wants(int64(pid)) {
		var ev probe.Event
		probeEvent(&ev, probe.KindDecide, span, &d)
		m.probeDecide.Emit(&ev)
	}
	alertFn := m.alertSink()
	oi := opIndex(op)
	sendAlert := alertFn != nil && oi >= 0 && alertOps[oi]
	if sendAlert {
		m.stats.alertsSent.Add(1)
	}

	if sendAlert {
		alertFn(AlertRequest{PID: pid, Op: op, Time: opTime, Blocked: verdict == VerdictDeny, Degraded: isDegraded, Ctx: span})
	}
	return verdict
}

// RecordDenial appends an audit record for a denial decided *outside*
// the monitor — e.g. a sensitive-device open aborted by a transient
// kernel error. The fail-closed policy turns such failures into
// denials, and this method keeps them from being silent: every denial
// along the decision path leaves an audit record.
func (m *Monitor) RecordDenial(pid int, op Op, opTime time.Time, reason string) {
	m.RecordDenialCtx(probe.SpanContext{}, pid, op, opTime, reason)
}

// RecordDenialCtx is RecordDenial carrying the trace context of the
// failed operation.
func (m *Monitor) RecordDenialCtx(ctx probe.SpanContext, pid int, op Op, opTime time.Time, reason string) {
	stamp, _, _, _ := m.tasks.InteractionView(pid)
	d := Decision{PID: pid, Op: op, OpTime: opTime, Stamp: stamp, Verdict: VerdictDeny, Reason: reason}
	m.stats.denials.Add(1)
	m.appendAudit(&d)
	if m.probeDecide.Wants(int64(pid)) {
		var ev probe.Event
		probeEvent(&ev, probe.KindDecide, ctx, &d)
		ev.Flags = probe.FlagRecorded
		m.probeDecide.Emit(&ev)
	}
}

// Audit returns a copy of the audit log, oldest first.
func (m *Monitor) Audit() []Decision {
	a := &m.audit
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Decision, a.n)
	for i := range out {
		out[i] = a.ring[(a.head+i)%m.auditCap]
	}
	return out
}

// DroppedAudit reports how many audit records were evicted.
func (m *Monitor) DroppedAudit() uint64 {
	m.audit.mu.Lock()
	defer m.audit.mu.Unlock()
	return m.audit.dropped
}

// StatsSnapshot returns a copy of the activity counters.
func (m *Monitor) StatsSnapshot() Stats {
	grants := m.stats.grants.Load()
	denials := m.stats.denials.Load()
	return Stats{
		Notifications:   m.stats.notifications.Load(),
		Queries:         grants + denials,
		Grants:          grants,
		Denials:         denials,
		AlertsSent:      m.stats.alertsSent.Load(),
		DegradedDenials: m.stats.degradedDenials.Load(),
	}
}

// ResetAudit clears the audit log (used between experiment phases).
func (m *Monitor) ResetAudit() {
	a := &m.audit
	a.mu.Lock()
	a.head, a.n, a.dropped = 0, 0, 0
	a.mu.Unlock()
}
