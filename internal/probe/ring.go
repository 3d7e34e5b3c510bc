package probe

import (
	"sync/atomic"

	"overhaul/internal/faultinject"
)

// Ring is a perf-buffer-like bounded MPSC event ring: any number of
// concurrent publishers (armed hooks on hot paths), one batched
// consumer. Publishing is lock-free — a CAS claims the next slot — and
// never blocks: when the consumer falls behind and the ring fills,
// the event is dropped and counted, exactly like a perf buffer under
// a slow reader. The decision path is therefore never perturbed by a
// stalled observer; the chaos invariant in internal/faultinject/chaos
// pins that property under injected reader stalls.
//
// Slot protocol (single consumer): a publisher CASes tail from t to
// t+1 (claiming slot t&mask), writes the event, then stores the slot's
// sequence as t+1 — the publication barrier. The consumer reads a slot
// only when its sequence equals position+1, then advances head. A slot
// is reclaimed only after head has passed it, and a publisher can only
// claim a slot once head has passed its previous occupant (the
// full-check reads head before the CAS and head is monotone), so a
// slot is never overwritten while the consumer may still copy it.
type Ring struct {
	mask  uint64
	slots []ringSlot

	head    atomic.Uint64 // next unread position (consumer-owned)
	tail    atomic.Uint64 // next claim position == events published
	dropped atomic.Uint64 // publishes refused on a full ring
	read    atomic.Uint64 // events handed to the consumer
	stalls  atomic.Uint64 // injected reader stalls observed

	// faults is consulted by the batched reader at PointProbeRing
	// (reader stall → overflow). Set before the ring is shared; nil
	// never injects.
	faults faultinject.Hook
}

type ringSlot struct {
	seq atomic.Uint64 // 0 empty; position+1 once the event is visible
	ev  Event
}

// minRingSize keeps the claim/reclaim reasoning trivial even for
// degenerate test rings.
const minRingSize = 8

// NewRing creates a ring with at least the given capacity, rounded up
// to a power of two (minimum 8).
func NewRing(capacity int) *Ring {
	size := minRingSize
	for size < capacity {
		size <<= 1
	}
	return &Ring{mask: uint64(size - 1), slots: make([]ringSlot, size)}
}

// SetFaultHook installs the fault-injection hook the batched reader
// consults at PointProbeRing. Install before the ring is shared with
// publishers or the consumer; a nil hook (the default) never injects.
func (r *Ring) SetFaultHook(h faultinject.Hook) { r.faults = h }

// Capacity returns the slot count.
func (r *Ring) Capacity() int { return len(r.slots) }

// Publish copies ev into the ring, assigning its Seq (1-based
// publication order). It reports false — counting a drop — when the
// ring is full. Safe for any number of concurrent publishers; never
// blocks, never allocates.
func (r *Ring) Publish(ev *Event) bool {
	for {
		t := r.tail.Load()
		h := r.head.Load()
		if t-h >= uint64(len(r.slots)) {
			r.dropped.Add(1)
			return false
		}
		if r.tail.CompareAndSwap(t, t+1) {
			s := &r.slots[t&r.mask]
			s.ev = *ev
			s.ev.Seq = t + 1
			s.seq.Store(t + 1)
			return true
		}
	}
}

// ReadBatch copies up to len(buf) pending events into buf, in
// publication order, and returns the count. Single consumer only. An
// injected PointProbeRing error models a stalled reader: the batch
// returns nothing and consumes nothing, so publishers keep filling the
// ring and eventually overflow into counted drops.
func (r *Ring) ReadBatch(buf []Event) int {
	if f := faultinject.Eval(r.faults, faultinject.PointProbeRing); f.Kind == faultinject.KindError {
		r.stalls.Add(1)
		return 0
	}
	h := r.head.Load()
	n := 0
	for n < len(buf) {
		s := &r.slots[h&r.mask]
		if s.seq.Load() != h+1 {
			break
		}
		buf[n] = s.ev
		n++
		h++
	}
	if n > 0 {
		r.head.Store(h)
		r.read.Add(uint64(n))
	}
	return n
}

// RingStats is a snapshot of the ring's accounting. Published counts
// successful publishes; Dropped counts refused ones; Read counts
// events delivered to the consumer; Pending is what sits in the ring
// right now (Published - Read); Stalls counts injected reader stalls.
// Published + Dropped equals the number of matched events the
// publishers attempted — the accounting identity the chaos invariant
// checks.
type RingStats struct {
	Capacity  int
	Published uint64
	Dropped   uint64
	Read      uint64
	Pending   uint64
	Stalls    uint64
}

// Stats snapshots the counters.
func (r *Ring) Stats() RingStats {
	published := r.tail.Load()
	read := r.read.Load()
	return RingStats{
		Capacity:  len(r.slots),
		Published: published,
		Dropped:   r.dropped.Load(),
		Read:      read,
		Pending:   published - read,
		Stalls:    r.stalls.Load(),
	}
}

// Dropped returns the drop count.
func (r *Ring) Dropped() uint64 { return r.dropped.Load() }
