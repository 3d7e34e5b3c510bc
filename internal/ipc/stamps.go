// Package ipc implements the inter-process communication facilities of
// the simulated kernel, each retrofitted with Overhaul's interaction
// timestamp propagation (policy P2 of the paper, §III-D and §IV-B).
//
// Every IPC resource carries an embedded interaction timestamp,
// initialised to "expired". When a process sends data through a channel
// it embeds its own stamp unless the channel already holds a more recent
// one; when a process receives data it adopts the channel's stamp if it
// is newer than its own. Chains of arbitrary length and topology
// therefore propagate interaction evidence without any knowledge of the
// application-level protocol. Supported families, matching the paper's
// prototype: anonymous pipes, FIFOs, UNIX domain sockets, POSIX and
// SysV message queues, POSIX and SysV shared memory (via simulated
// page-fault interception), and pseudo-terminals.
package ipc

import (
	"sync/atomic"
	"time"

	"overhaul/internal/probe"
)

// Stamps is the kernel-side view of per-process interaction timestamps
// used by IPC propagation. The kernel implements it over its process
// table. Each stamp travels with the trace span that minted it, so a
// permission grant enabled by a stamp that crossed a pipe or a
// shared-memory segment still traces back to the original input event.
type Stamps interface {
	// Stamp returns pid's current interaction timestamp and its
	// minting span; ok is false for unknown processes.
	Stamp(pid int) (t time.Time, ctx probe.SpanContext, ok bool)
	// Adopt installs t and its minting span as pid's stamp if t is
	// newer than the current one. Unknown processes are ignored.
	Adopt(pid int, t time.Time, ctx probe.SpanContext)
}

// StampSlot is one interaction-stamp cell. The paper keeps the stamp in
// two kinds of place under one newest-wins rule (§III-D, §IV-B): the
// task struct and the kernel object of every IPC family. Both are a
// StampSlot — the kernel's Process, a fleet session's process table and
// every pipe, socket, queue, pty and shared-memory segment here.
//
// The stamp is unix nanoseconds in an atomic, written only through
// Adopt's CAS-max loop so it is monotonically non-decreasing; 0 is the
// "no interaction" sentinel (unambiguous because every clock in this
// tree reports instants at or after clock.Epoch, 2016). Reads are
// atomic loads, so a slot adds no lock to the paths it rides. The span
// pointer travels with the stamp: the CAS winner stores it, so stamp and
// minting span stay a unit on the uncontended path. Under a CAS race the
// span may briefly describe a different write than the stamp; both are
// then authentic near-simultaneous interactions, and the skew only
// affects trace linkage, never the verdict.
type StampSlot struct {
	nanos atomic.Int64
	span  atomic.Pointer[probe.SpanContext]
}

// Adopt installs t (and the span that delivered it) iff t is newer than
// the current stamp — the newest-wins rule as a lock-free CAS-max. A
// zero t never installs.
func (s *StampSlot) Adopt(t time.Time, ctx probe.SpanContext) {
	if t.IsZero() {
		return
	}
	n := t.UnixNano()
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

// Stamp returns the stamp (zero time when no interaction is recorded)
// and the trace span that minted it (zero when unknown).
func (s *StampSlot) Stamp() (time.Time, probe.SpanContext) {
	n := s.nanos.Load()
	if n == 0 {
		return time.Time{}, probe.SpanContext{}
	}
	var ctx probe.SpanContext
	if c := s.span.Load(); c != nil {
		ctx = *c
	}
	return time.Unix(0, n).UTC(), ctx
}

// Reset clears the slot back to "no interaction". Only for slot reuse
// while no concurrent adopter can reach the slot (process-table
// recycle); it is not a newest-wins write.
func (s *StampSlot) Reset() {
	s.nanos.Store(0)
	s.span.Store(nil)
}

// Inherit copies src's stamp and span into s wholesale — fork-time P1
// inheritance onto a fresh child slot. Not newest-wins: the child has
// no prior stamp to defend.
func (s *StampSlot) Inherit(src *StampSlot) {
	s.nanos.Store(src.nanos.Load())
	s.span.Store(src.span.Load())
}

// onSend runs the sender half of the propagation protocol: embed the
// sender's stamp unless the resource already holds a more recent one.
func (s *StampSlot) onSend(st Stamps, pid int) {
	if st == nil {
		return
	}
	if t, ctx, ok := st.Stamp(pid); ok {
		s.Adopt(t, ctx)
	}
}

// onRecv runs the receiver half: adopt the resource's stamp if it is
// more recent than the receiver's own.
func (s *StampSlot) onRecv(st Stamps, pid int) {
	if st == nil {
		return
	}
	if t, ctx := s.Stamp(); !t.IsZero() {
		st.Adopt(pid, t, ctx)
	}
}

// onAccess runs both halves. Shared-memory faults cannot distinguish a
// read from a write above the hardware level, so the fault handler
// propagates in both directions.
func (s *StampSlot) onAccess(st Stamps, pid int) {
	s.onSend(st, pid)
	s.onRecv(st, pid)
}

// stampValue returns the embedded stamp (for tests and tracing).
func (s *StampSlot) stampValue() time.Time {
	t, _ := s.Stamp()
	return t
}
