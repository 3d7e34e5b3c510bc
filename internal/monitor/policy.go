package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"
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
// sessions. A degraded denial's prefixed reason is interned the same
// way, by its degraded reason.
func (p Policy) Evaluate(q Query) (Verdict, string) {
	v, reason, _ := p.evaluate(q, "")
	return v, reason
}

// evaluate is Evaluate that also returns the reason's audit code
// (rcSide for a degraded reason). degradedText, when not empty, is
// the full reason for q.Degraded: the Monitor builds it once per
// SetDegraded, so its decision path reads no table shared with other
// monitors.
func (p Policy) evaluate(q Query, degradedText string) (Verdict, string, uint32) {
	switch {
	case p.Force:
		//overhaul:allow flowcheck force-grant deliberately bypasses freshness: benchmark mode measures mediation overhead with the verdict pinned
		return VerdictGrant, ReasonForceGrant, rcForceGrant
	case !p.Enforce:
		//overhaul:allow flowcheck observe-only mode grants by policy while still recording stamp age; enforcement is the ablation axis
		return VerdictGrant, ReasonObserveOnly, rcObserveOnly
	case q.Degraded != "":
		// Fail closed: a decision path whose trusted substrate is
		// broken must deny, whatever the stamps say.
		if degradedText == "" {
			degradedText, _, _ = degradedReasons.intern(q.Degraded, degradedReason)
		}
		return VerdictDeny, degradedText, rcSide
	case !q.Exists:
		return VerdictDeny, ReasonNoSuchProcess, rcNoSuchProcess
	case q.Disabled:
		return VerdictDeny, ReasonPtraceGuard, rcPtraceGuard
	case q.Stamp.IsZero():
		return VerdictDeny, ReasonNoInteraction, rcNoInteraction
	case q.OpTime.Before(q.Stamp):
		// An operation "before" the interaction can only happen
		// through clock misuse; treat as immediate proximity.
		return VerdictGrant, ReasonStampAfterOp, rcStampAfterOp
	case q.OpTime.Sub(q.Stamp) < p.Threshold:
		return VerdictGrant, ReasonWithinDelta, rcWithinDelta
	default:
		return staleDenial(q.OpTime.Sub(q.Stamp)-p.Threshold, p.Threshold)
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

// internTable is a bounded string intern shared by every policy. Each
// kept string gets the next id, its position in text. A hit reads an
// immutable snapshot through one atomic load, so decisions in different
// sessions share no lock and write no shared cache line; an insert
// serializes on mu and publishes a new snapshot with a copied map.
// Copying is cheap because the tables saturate at a few dozen entries;
// the cap guards against an adversarial spread of keys, and bounds the
// copying at ~8M map entries over the table's life.
type internTable[K comparable] struct {
	mu   sync.Mutex
	snap atomic.Pointer[internSnap[K]]
}

// internSnap is one published state of an internTable, never written
// after it is published. Later snapshots share text's backing array:
// text is append-only, so a snapshot's prefix is never overwritten.
type internSnap[K comparable] struct {
	ids  map[K]uint32
	text []string
}

const internTableCap = 4096

// intern returns the string kept under k and its id, building it with
// build on first sight. ok is false once the table is full: the string
// was built but not kept, and has no id.
func (t *internTable[K]) intern(k K, build func(K) string) (s string, id uint32, ok bool) {
	if sn := t.snap.Load(); sn != nil {
		if id, ok = sn.ids[k]; ok {
			return sn.text[id], id, true
		}
	}
	s = build(k)
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	if old == nil {
		old = &internSnap[K]{}
	}
	if id, ok = old.ids[k]; ok {
		return old.text[id], id, true
	}
	if len(old.text) >= internTableCap {
		return s, 0, false
	}
	ids := make(map[K]uint32, len(old.ids)+1)
	for key, v := range old.ids {
		ids[key] = v
	}
	id = uint32(len(old.text))
	ids[k] = id
	t.snap.Store(&internSnap[K]{ids: ids, text: append(old.text, s)})
	return s, id, true
}

// snapshot returns the kept strings, indexed by id.
func (t *internTable[K]) snapshot() []string {
	if sn := t.snap.Load(); sn != nil {
		return sn.text
	}
	return nil
}

// staleKey identifies one interned stale reason.
type staleKey struct {
	stale, threshold time.Duration
}

// staleReasons interns stale-denial reasons. δ is per-policy constant
// and quantized stalenesses cluster, so the table saturates at a few
// dozen entries in practice. Its ids are the audit ring's stale reason
// codes.
var staleReasons internTable[staleKey]

// degradedReasons interns Evaluate's degraded-denial reasons by their
// degraded reason. Only Evaluate reads it: the Monitor builds its own
// once per SetDegraded, and its audit ring keeps degraded reasons in
// the side slot, so these ids go unused.
var degradedReasons internTable[string]

// staleDenial is the stale-stamp denial: its interned reason and audit
// code, formatted and cached on first sight of the quantized
// (staleness, δ) pair.
func staleDenial(stale, threshold time.Duration) (Verdict, string, uint32) {
	s, id, ok := staleReasons.intern(staleKey{QuantizeStale(stale), threshold}, staleReasonText)
	if !ok {
		return VerdictDeny, s, rcSide
	}
	return VerdictDeny, s, rcStale + id
}

func staleReasonText(k staleKey) string {
	return fmt.Sprintf("interaction stale by %v (δ=%v)", k.stale, k.threshold)
}

// degradedReason is the full reason of a denial issued while degraded
// for reason.
func degradedReason(reason string) string {
	return reasonDegradedPrefix + reason
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
