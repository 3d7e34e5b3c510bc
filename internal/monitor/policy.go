package monitor

import (
	"fmt"
	"sync"
	"time"
)

// Policy is the pure temporal-proximity decision rule D(Q_{A,t}) (paper
// §III-B). The Monitor applies it on every decision; it is exported so
// configuration (a fleet's Config) and replays (the benchmark's
// reference model) can carry the rule as a value. Policy is a small
// value type with no pointers — comparing, copying, and embedding it
// are all free — and Evaluate is a pure function of its inputs.
type Policy struct {
	// Threshold is δ, the temporal proximity window. Must be positive;
	// the Monitor constructor defaults it to DefaultThreshold.
	Threshold time.Duration
	// Force short-circuits every decision to grant (benchmark mode,
	// paper Table I).
	Force bool
	// Enforce turns blocking on; false is observe-only mode.
	Enforce bool
}

// Query carries everything one decision needs: the process view read
// from the task store plus the operation timestamp. It is passed by
// value — building one performs no allocation.
type Query struct {
	// OpTime is the privileged operation's timestamp.
	OpTime time.Time
	// Stamp is the process's most recent authentic-interaction time
	// (zero if it has never received input).
	Stamp time.Time
	// Degraded is the fail-closed reason when the mediation substrate
	// is broken; empty means healthy.
	Degraded string
	// Exists reports whether the process is alive in the task store.
	Exists bool
	// Disabled reports whether the process's permissions are
	// force-disabled (the ptrace guard).
	Disabled bool
}

// Fixed decision reasons. Exported so tests can assert on the exact
// strings; the dynamic reasons
// (degraded, stale) are produced by Evaluate itself.
const (
	ReasonForceGrant     = "force-grant (benchmark mode)"
	ReasonObserveOnly    = "observe-only mode"
	ReasonNoSuchProcess  = "no such process"
	ReasonPtraceGuard    = "permissions disabled (ptrace guard)"
	ReasonNoInteraction  = "no recorded user interaction"
	ReasonStampAfterOp   = "interaction at or after operation"
	ReasonWithinDelta    = "within temporal proximity threshold"
	reasonDegradedPrefix = "protection degraded: "
)

// Evaluate applies the rule to one query and returns the verdict with
// its human-readable reason. Every path is allocation-free in steady
// state: the stale-stamp denial quantizes its staleness to two
// significant figures and hands out an interned string, so a fleet
// denying at rate does not allocate one reason per denial — and equal
// (staleness, δ) pairs produce the identical string value across all
// sessions.
func (p Policy) Evaluate(q Query) (Verdict, string) {
	switch {
	case p.Force:
		//overhaul:allow flowcheck force-grant deliberately bypasses freshness: benchmark mode measures mediation overhead with the verdict pinned
		return VerdictGrant, ReasonForceGrant
	case !p.Enforce:
		//overhaul:allow flowcheck observe-only mode grants by policy while still recording stamp age; enforcement is the ablation axis
		return VerdictGrant, ReasonObserveOnly
	case q.Degraded != "":
		// Fail closed: a decision path whose trusted substrate is
		// broken must deny, whatever the stamps say.
		return VerdictDeny, reasonDegradedPrefix + q.Degraded
	case !q.Exists:
		return VerdictDeny, ReasonNoSuchProcess
	case q.Disabled:
		return VerdictDeny, ReasonPtraceGuard
	case q.Stamp.IsZero():
		return VerdictDeny, ReasonNoInteraction
	case q.OpTime.Before(q.Stamp):
		// An operation "before" the interaction can only happen
		// through clock misuse; treat as immediate proximity.
		return VerdictGrant, ReasonStampAfterOp
	case q.OpTime.Sub(q.Stamp) < p.Threshold:
		return VerdictGrant, ReasonWithinDelta
	default:
		return VerdictDeny, staleReason(q.OpTime.Sub(q.Stamp)-p.Threshold, p.Threshold)
	}
}

// QuantizeStale rounds a staleness down to two significant figures
// (3.25s → 3.2s, 987ms → 980ms), the resolution the stale-denial
// reason reports. Coarsening the dynamic part is what makes the reason
// cacheable: a session denying continuously produces a handful of
// distinct reasons instead of one per nanosecond.
func QuantizeStale(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	q := time.Duration(1)
	for d/q >= 100 {
		q *= 10
	}
	return d - d%q
}

// staleKey identifies one interned stale reason.
type staleKey struct {
	stale, threshold time.Duration
}

// staleReasons caches formatted stale-denial reasons. Bounded: δ is
// per-policy constant and quantized stalenesses cluster, so the cache
// saturates at a few dozen entries in practice; the cap only guards
// against an adversarial spread of thresholds.
var staleReasons struct {
	sync.RWMutex
	m map[staleKey]string
}

const staleReasonCacheCap = 4096

// staleReason returns the interned reason string for a stale denial,
// formatting and caching it on first sight of the (staleness, δ) pair.
func staleReason(stale, threshold time.Duration) string {
	k := staleKey{QuantizeStale(stale), threshold}
	staleReasons.RLock()
	s, ok := staleReasons.m[k]
	staleReasons.RUnlock()
	if ok {
		return s
	}
	s = fmt.Sprintf("interaction stale by %v (δ=%v)", k.stale, threshold)
	staleReasons.Lock()
	if staleReasons.m == nil {
		staleReasons.m = make(map[staleKey]string, 64)
	}
	if len(staleReasons.m) < staleReasonCacheCap {
		staleReasons.m[k] = s
	}
	staleReasons.Unlock()
	return s
}

// DegradedDenial reports whether a decision under this policy counts as
// a degraded (fail-closed) denial rather than a temporal-proximity one:
// degraded mode only bites when the policy actually enforces.
func (p Policy) DegradedDenial(degraded string) bool {
	return degraded != "" && !p.Force && p.Enforce
}

// Policy returns the monitor's decision rule as a shareable value.
func (m *Monitor) Policy() Policy {
	return Policy{Threshold: m.threshold, Force: m.force, Enforce: m.enforce}
}
