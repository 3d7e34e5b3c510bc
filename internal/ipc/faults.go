package ipc

import (
	"time"

	"overhaul/internal/faultinject"
	"overhaul/internal/probe"
)

// faultyStamps decorates a Stamps store with injected write failures:
// when the PointStampWrite fault fires, Adopt silently loses the
// update. This models a transient failure of the kernel-side stamp
// store. The degradation is fail closed by construction — a lost
// Adopt means the receiving process keeps an *older* stamp, so a
// subsequent temporal-proximity check can only deny where it would
// otherwise have granted, never the reverse.
type faultyStamps struct {
	st   Stamps
	hook faultinject.Hook
}

// FaultyStamps wraps st so that stamp-store writes consult hook at
// PointStampWrite. A nil hook (or nil st) returns st unchanged.
func FaultyStamps(st Stamps, hook faultinject.Hook) Stamps {
	if st == nil || hook == nil {
		return st
	}
	return &faultyStamps{st: st, hook: hook}
}

// Stamp implements Stamps. Reads are never faulted: the threat model
// injects *write* failures (the store losing an update), and a faulted
// read would be indistinguishable from "no interaction", which Adopt
// faults already cover.
func (f *faultyStamps) Stamp(pid int) (time.Time, probe.SpanContext, bool) {
	return f.st.Stamp(pid)
}

// Adopt implements Stamps; an injected fault drops the stamp and its
// span together (they travel as one unit).
func (f *faultyStamps) Adopt(pid int, t time.Time, ctx probe.SpanContext) {
	if faultinject.Eval(f.hook, faultinject.PointStampWrite).Injected() {
		return // update lost; receiver keeps its older (staler) stamp
	}
	f.st.Adopt(pid, t, ctx)
}
