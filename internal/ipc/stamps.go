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
// table.
type Stamps interface {
	// Stamp returns pid's current interaction timestamp; ok is false
	// for unknown processes.
	Stamp(pid int) (t time.Time, ok bool)
	// Adopt installs t as pid's stamp if t is newer than the current
	// one. Unknown processes are ignored.
	Adopt(pid int, t time.Time)
}

// SpanStamps is an optional extension of Stamps for stores that track
// the trace span that minted each stamp. When the store supports it,
// IPC propagation carries the span alongside the timestamp, so a
// permission grant enabled by a stamp that travelled through a pipe or
// a shared-memory segment still traces back to the original input
// event. Plain Stamps stores propagate timestamps only.
type SpanStamps interface {
	Stamps
	// StampSpan returns the span context stored with pid's stamp; ok
	// is false for unknown processes.
	StampSpan(pid int) (ctx probe.SpanContext, ok bool)
	// AdoptSpan installs t and its minting span as pid's stamp if t is
	// newer than the current one. Unknown processes are ignored.
	AdoptSpan(pid int, t time.Time, ctx probe.SpanContext)
}

// stampSpanOf fetches pid's stamp span when the store tracks spans.
func stampSpanOf(st Stamps, pid int) probe.SpanContext {
	if ss, ok := st.(SpanStamps); ok {
		if ctx, found := ss.StampSpan(pid); found {
			return ctx
		}
	}
	return probe.SpanContext{}
}

// adoptWithSpan installs a stamp, carrying its span when the store
// tracks spans.
func adoptWithSpan(st Stamps, pid int, t time.Time, ctx probe.SpanContext) {
	if ss, ok := st.(SpanStamps); ok {
		ss.AdoptSpan(pid, t, ctx)
		return
	}
	st.Adopt(pid, t)
}

// carrier is the timestamp embedded in an IPC resource's kernel data
// structure. The stamp is unix nanoseconds with 0 meaning "expired"
// (the paper's step (1)); every clock in this tree reports instants at
// or after clock.Epoch, so 0 is unambiguous. Writes go through a
// CAS-max loop and reads are single atomic loads, so carriers add no
// lock to the IPC data paths they ride.
type carrier struct {
	stamp atomic.Int64
	// span is the trace span that minted stamp (nil when telemetry is
	// off or the stamp arrived without context); the CAS winner stores
	// it, keeping stamp and span a unit on the uncontended path. Under
	// a send race the span may briefly describe the other authentic
	// write — trace-linkage skew only, never a verdict input.
	span atomic.Pointer[probe.SpanContext]
}

// carrierNanos encodes a stamp time (zero time → 0 = expired).
func carrierNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// carrierTime decodes a stored stamp (0 → zero time).
func carrierTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// onSend runs the sender half of the propagation protocol: embed the
// sender's stamp unless the resource already holds a more recent one.
func (c *carrier) onSend(st Stamps, pid int) {
	if st == nil {
		return
	}
	sender, ok := st.Stamp(pid)
	if !ok {
		return
	}
	n := carrierNanos(sender)
	if n == 0 || n <= c.stamp.Load() {
		// Fast path: nothing to embed, and no span lookup either.
		return
	}
	span := stampSpanOf(st, pid)
	for {
		cur := c.stamp.Load()
		if n <= cur {
			return
		}
		if c.stamp.CompareAndSwap(cur, n) {
			if span == (probe.SpanContext{}) {
				c.span.Store(nil)
			} else {
				s := span
				c.span.Store(&s)
			}
			return
		}
	}
}

// onRecv runs the receiver half: adopt the resource's stamp if it is
// more recent than the receiver's own.
func (c *carrier) onRecv(st Stamps, pid int) {
	if st == nil {
		return
	}
	n := c.stamp.Load()
	if n == 0 {
		return
	}
	span := probe.SpanContext{}
	if p := c.span.Load(); p != nil {
		span = *p
	}
	adoptWithSpan(st, pid, carrierTime(n), span)
}

// onAccess runs both halves. Shared-memory faults cannot distinguish a
// read from a write above the hardware level, so the fault handler
// propagates in both directions.
func (c *carrier) onAccess(st Stamps, pid int) {
	c.onSend(st, pid)
	c.onRecv(st, pid)
}

// stampValue returns the embedded stamp (for tests and tracing).
func (c *carrier) stampValue() time.Time {
	return carrierTime(c.stamp.Load())
}
