package probe

import (
	"math"
	"sync/atomic"
)

// Hook is one named attach point compiled into a hot path. The host
// subsystem holds the *Hook (resolved once from the Registry at
// construction) and guards every emission with Wants(pid):
//
//	if h := k.probeOpen; h.Wants(int64(pid)) {
//	    h.Emit(&probe.Event{...})
//	}
//
// Wants on an unattached hook is one atomic pointer load (plus the nil
// check a nil registry compiles down to) — the entire cost the hot
// path pays when nothing is attached. When probes are attached, Wants
// is the first stage of predicate evaluation: the attach set carries
// the union of the attached specs' pid windows, precomputed at attach
// time, so a pid-scoped probe — the common shape of a live trace, and
// the shape the multiview report's attached-idle mode measures — is
// rejected with two integer compares before the caller pays to build
// the Event. Event construction and per-spec matching happen only
// behind it.
type Hook struct {
	name string
	reg  *Registry
	// probes and consumers are the attached observers, guarded by the
	// registry lock and replaced, never written in place, on attach and
	// detach; set shares them as an immutable snapshot (nil when none
	// is attached), swapped whole so Emit iterates without a lock.
	probes    []*Probe
	consumers []Consumer
	set       atomic.Pointer[attachSet]
}

// Consumer is an in-process observer fed inline by Emit: it sees every
// event at the hooks it is attached to, before any ring probe and
// unfiltered. Consume runs on the emitting hot path, so it must not
// block or emit.
type Consumer interface {
	Consume(ev Event)
}

// attachSet is an immutable snapshot of a hook's observers.
type attachSet struct {
	probes    []*Probe
	consumers []Consumer
	// pidLo..pidHi is the union of the attached specs' pid windows (a
	// spec without a pid filter, or any consumer, widens it to the full
	// int64 range): the aggregate first-stage filter behind Wants.
	pidLo, pidHi int64
}

// rebuild republishes the hook's attach set. Requires the registry
// lock.
func (h *Hook) rebuild() {
	if len(h.probes) == 0 && len(h.consumers) == 0 {
		h.set.Store(nil)
		return
	}
	s := &attachSet{
		probes:    h.probes,
		consumers: h.consumers,
		pidLo:     math.MaxInt64, pidHi: math.MinInt64,
	}
	if len(s.consumers) > 0 {
		s.pidLo, s.pidHi = math.MinInt64, math.MaxInt64
	}
	for _, p := range s.probes {
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if p.spec.HasPID {
			lo, hi = p.spec.PIDLo, p.spec.PIDHi
		}
		s.pidLo, s.pidHi = min(s.pidLo, lo), max(s.pidHi, hi)
	}
	h.set.Store(s)
}

// Name returns the attach-point name ("kernel.open", ...).
func (h *Hook) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Armed reports whether any probe or consumer is attached. Nil-safe: a
// nil hook (nil registry, or unknown name) is never armed.
func (h *Hook) Armed() bool {
	return h != nil && h.set.Load() != nil
}

// Wants reports whether an event carrying the given pid could reach
// any attached observer: the cheap first stage of predicate
// evaluation, meant to guard Event construction at the emission site.
// Nil-safe and one atomic load when unattached; two extra integer
// compares when armed.
func (h *Hook) Wants(pid int64) bool {
	if h == nil {
		return false
	}
	set := h.set.Load()
	return set != nil && pid >= set.pidLo && pid <= set.pidHi
}

// Emit hands a copy of ev to every attached consumer, then matches it
// against every attached probe and publishes it to the rings of those
// that match. Call only behind Wants (calling unarmed is safe, just
// wasted work building ev). Emit never blocks, retains nothing, and
// allocates nothing of its own: the spec matcher is flat compares and
// a ring publish is a slot copy.
func (h *Hook) Emit(ev *Event) {
	set := h.set.Load()
	if set == nil {
		return
	}
	for _, c := range set.consumers {
		c.Consume(*ev)
	}
	for _, p := range set.probes {
		if p.spec.Match(ev) {
			p.matched.Add(1)
			p.ring.Publish(ev)
		}
	}
}

// Begin opens a span at this hook under parent, with ev as its begin
// event: it stamps ev with a context minted from the registry's
// counters — a zero parent starts a new trace, and IDs are sequential
// per system whatever is attached — and emits it. The caller keeps ev,
// fills its outcome fields (Verdict, Reason, Detail, Arg, Flags), and
// passes it to End, which emits it again as the end event. When no
// observer Wants(ev.PID), Begin leaves ev untouched: its context stays
// zero and End does nothing.
//
// Every begun span must be ended on every return path; the spancheck
// analyzer enforces it. The idiom is
//
//	sp := probe.Event{...}
//	h.Begin(parent, &sp)
//	defer h.End(&sp)
//
// and, where building the begin event costs something, the guarded
// form
//
//	var sp probe.Event
//	if h.Wants(pid) {
//	    sp = probe.Event{...}
//	    h.Begin(parent, &sp)
//	}
//	defer h.End(&sp)
func (h *Hook) Begin(parent SpanContext, ev *Event) {
	if !h.Wants(ev.PID) {
		return
	}
	ev.Ctx = h.reg.mint(parent)
	ev.Parent = parent.Span
	ev.Phase = PhaseBegin
	h.Emit(ev)
}

// End emits ev, begun by Begin, as its span's end event. It does
// nothing for an event Begin left untouched or End already ended.
func (h *Hook) End(ev *Event) {
	if ev.Phase == PhaseBegin {
		ev.Phase = PhaseEnd
		h.Emit(ev)
	}
}
