package kernel

import (
	"sync/atomic"
	"time"

	"overhaul/internal/probe"
)

// StampSlot is one interaction-stamp cell: the Overhaul task_struct
// field (paper §IV-B) as a free-standing value. The stamp is unix
// nanoseconds in an atomic, written only through Adopt's CAS-max loop
// so it is monotonically non-decreasing; 0 is the "no interaction"
// sentinel (unambiguous because every clock in this tree reports
// instants at or after clock.Epoch, 2016). The span pointer travels
// with the stamp: the CAS winner stores it, so stamp and minting span
// stay a unit on the uncontended path. Under a CAS race the span may
// briefly describe a different write than the stamp; both are then
// authentic near-simultaneous interactions, and the skew only affects
// trace linkage, never the verdict.
//
// It is exported because the kernel's Process and a fleet Session
// (internal/fleet) must be the *same* stamp store semantics: fleet
// sessions keep a StampSlot per tracked pid instead of a full task
// struct, and internal/fleet's session-vs-kernel equivalence test leans
// on the two process tables sharing this one implementation.
type StampSlot struct {
	nanos atomic.Int64
	span  atomic.Pointer[probe.SpanContext]
}

// Adopt installs t (and the span that delivered it) iff t is newer than
// the current stamp — the newest-wins rule as a lock-free CAS-max. A
// zero t never installs.
func (s *StampSlot) Adopt(t time.Time, ctx probe.SpanContext) {
	n := stampNanos(t)
	if n == 0 {
		return
	}
	for {
		cur := s.nanos.Load()
		if n <= cur {
			return
		}
		if s.nanos.CompareAndSwap(cur, n) {
			if ctx == (probe.SpanContext{}) {
				s.span.Store(nil)
			} else {
				c := ctx
				s.span.Store(&c)
			}
			return
		}
	}
}

// Time returns the stamp (zero time when no interaction is recorded).
func (s *StampSlot) Time() time.Time {
	return stampTime(s.nanos.Load())
}

// Span returns the trace span that minted the current stamp (zero when
// unknown).
func (s *StampSlot) Span() probe.SpanContext {
	if c := s.span.Load(); c != nil {
		return *c
	}
	return probe.SpanContext{}
}

// Reset clears the slot back to "no interaction". Only for slot reuse
// while no concurrent adopter can reach the slot (process-table
// recycle, fleet session teardown); it is not a newest-wins write.
func (s *StampSlot) Reset() {
	s.nanos.Store(0)
	s.span.Store(nil)
}

// inherit copies src's stamp and span into s wholesale — fork-time P1
// inheritance onto a fresh child slot. Not newest-wins: the child has
// no prior stamp to defend.
func (s *StampSlot) inherit(src *StampSlot) {
	s.nanos.Store(src.nanos.Load())
	s.span.Store(src.span.Load())
}
