package telemetry

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"

	"overhaul/internal/probe"
)

// FlightEvent is one entry in the flight-recorder ring: a terse record
// of something the enforcement stack did or observed. Kind is a short
// taxonomy tag ("denial", "degradation", "fault", "decision",
// "violation", ...); Detail is human-readable.
type FlightEvent struct {
	Seq       uint64        `json:"seq"`
	Time      time.Time     `json:"time"`
	Subsystem string        `json:"subsystem"`
	Kind      string        `json:"kind"`
	Detail    string        `json:"detail"`
	Trace     probe.TraceID `json:"trace,omitempty"`
	Span      probe.SpanID  `json:"span,omitempty"`

	// Structured payload of recordDecision and tripDenial. Detail is
	// rendered from it only when the event is copied out, so recording
	// a decision or tripping on a denial allocates nothing.
	decPID     int
	decOp      string
	decVerdict string
	decReason  string
}

// render materialises Detail from the structured fields. Only the
// copy-out paths call it; the ring keeps the raw fields.
func (ev *FlightEvent) render() {
	switch {
	case ev.Detail != "":
	case ev.Kind == "trip" && ev.decVerdict != "":
		ev.Detail = ev.decVerdict + " pid=" + strconv.Itoa(ev.decPID) + " op=" + ev.decOp + ": " + ev.decReason
	case ev.decOp != "":
		ev.Detail = "pid=" + strconv.Itoa(ev.decPID) + " op=" + ev.decOp +
			" " + ev.decVerdict + ": " + ev.decReason
	}
}

// FlightDump is a snapshot of the ring taken the moment something went
// wrong. Events are oldest-first; the last events are therefore the
// ones that explain the trip.
type FlightDump struct {
	Seq    uint64        `json:"seq"`
	Time   time.Time     `json:"time"`
	Reason string        `json:"reason"`
	Events []FlightEvent `json:"events"`
}

// flightStore is the flight-recorder ring plus its retained dumps.
//
// A dump is a seq window, not a copy: the flightCap events ending at
// its trip event, whose time and detail are the dump's time and
// reason. The ring holds 2×flightCap events so a window stays in place
// for flightCap events after its trip; FlightEvents shows the newest
// flightCap. Reads copy a window out, and a retained dump is copied
// aside (once) just before its window starts to be overwritten.
type flightStore struct {
	seq  uint64        // newest event; event q lives at ring[(q-1)%len(ring)]
	ring []FlightEvent // 2×flightCap, allocated on first use
	// dumps is a ring of retained dumps, the oldest at dumpHead. The
	// newest lazy of them are still windows into ring.
	dumps                  []retainedDump
	dumpHead, nDumps, lazy int
	dumpsDropped           uint64
}

// retainedDump is a dump as stored: its trip event's seq and, once
// copied aside, its unrendered window.
type retainedDump struct {
	seq    uint64
	events []FlightEvent
}

// recordEvent appends an event to the flight ring. ctx may be zero.
// Like every recording method here, it requires r.mu held.
func (r *Recorder) recordEvent(ctx probe.SpanContext, subsystem, kind, detail string) {
	now := r.now()
	s := r.slotLocked()
	s.Time = now
	s.Subsystem = subsystem
	s.Kind = kind
	s.Detail = detail
	s.Trace = ctx.Trace
	s.Span = ctx.Span
}

// recordDecision appends a Kind "decision" event carrying the verdict
// fields in structured form. Unlike recordEvent with a concatenated
// detail string, this is allocation-free: the decision event hands
// over the pieces and snapshot accessors render "pid=N op=X verdict:
// reason" on demand.
func (r *Recorder) recordDecision(ctx probe.SpanContext, subsystem string, pid int, op, verdict, reason string) {
	r.recordDecisionAt(r.now(), ctx, subsystem, pid, op, verdict, reason)
}

// recordDecisionAt is recordDecision at instant now, read by the
// caller.
func (r *Recorder) recordDecisionAt(now time.Time, ctx probe.SpanContext, subsystem string, pid int, op, verdict, reason string) {
	// Filled in place: decisions are the hot path, and FlightEvent is
	// large enough that a construct-then-copy shape shows up in
	// profiles.
	s := r.slotLocked()
	s.Time = now
	s.Subsystem = subsystem
	s.Kind = "decision"
	s.Trace = ctx.Trace
	s.Span = ctx.Span
	s.decPID = pid
	s.decOp = op
	s.decVerdict = verdict
	s.decReason = reason
}

// slotLocked claims the next ring slot — sequence-stamped and
// otherwise zeroed — first copying aside every lazy dump whose window
// holds the event it overwrites. Requires r.mu held; the caller
// fills the slot before unlocking.
func (r *Recorder) slotLocked() *FlightEvent {
	f := &r.flight
	if f.ring == nil {
		f.ring = make([]FlightEvent, 2*r.flightCap)
	}
	f.seq++
	// Copy aside, oldest first, every lazy dump whose window holds the
	// event this slot overwrites (seq − 2×flightCap). Reads hand out
	// their own copies, so the buffer is reused.
	for ; f.lazy > 0 && f.seq > uint64(len(f.ring)); f.lazy-- {
		d := &f.dumps[(f.dumpHead+f.nDumps-f.lazy)%r.dumpCap]
		if d.seq+uint64(r.flightCap) >= f.seq {
			break // window starts after the overwritten event
		}
		d.events = r.windowLocked(d.seq, d.events[:0])
	}
	s := f.at(f.seq)
	*s = FlightEvent{Seq: f.seq}
	return s
}

// at returns the ring slot of event q.
func (f *flightStore) at(q uint64) *FlightEvent {
	return &f.ring[(q-1)%uint64(len(f.ring))]
}

// windowLocked appends the raw events of the window ending at event q
// to dst, allocated to fit when nil.
func (r *Recorder) windowLocked(q uint64, dst []FlightEvent) []FlightEvent {
	lo := uint64(1)
	if q > uint64(r.flightCap) {
		lo = q - uint64(r.flightCap) + 1
	}
	if dst == nil {
		dst = make([]FlightEvent, 0, q-lo+1)
	}
	for ; lo <= q; lo++ {
		dst = append(dst, *r.flight.at(lo))
	}
	return dst
}

// renderDump renders a caller-owned window ending at event q in place
// and returns it as the dump tripped there.
func renderDump(q uint64, events []FlightEvent) FlightDump {
	for i := range events {
		events[i].render()
	}
	trip := &events[len(events)-1]
	return FlightDump{Seq: q, Time: trip.Time, Reason: trip.Detail, Events: events}
}

// tripFlight records a trip event and retains a flight dump ending at
// it: a degradation or an invariant violation fired, and the dump's
// final events explain what led up to it. The trip is O(1) and copies
// nothing.
func (r *Recorder) tripFlight(ctx probe.SpanContext, subsystem, reason string) {
	r.trip(r.now(), ctx, subsystem, reason, 0, "", "", "")
}

// tripDenial is tripFlight for a denial, with the reason in structured
// form the way recordDecision takes a verdict: "deny pid=N op=X:
// reason" is rendered only when the dump is read, so tripping
// allocates nothing.
func (r *Recorder) tripDenial(ctx probe.SpanContext, subsystem string, pid int, op, reason string) {
	r.tripDenialAt(r.now(), ctx, subsystem, pid, op, reason)
}

// tripDenialAt is tripDenial at instant now, read by the caller.
func (r *Recorder) tripDenialAt(now time.Time, ctx probe.SpanContext, subsystem string, pid int, op, reason string) {
	r.trip(now, ctx, subsystem, "", pid, op, "deny", reason)
}

// trip records a Kind "trip" event at instant now with the given
// detail or structured fields and retains a lazy dump ending at it.
func (r *Recorder) trip(now time.Time, ctx probe.SpanContext, subsystem, detail string, pid int, op, verdict, reason string) {
	s := r.slotLocked()
	s.Time = now
	s.Subsystem = subsystem
	s.Kind = "trip"
	s.Detail = detail
	s.Trace = ctx.Trace
	s.Span = ctx.Span
	s.decPID = pid
	s.decOp = op
	s.decVerdict = verdict
	s.decReason = reason
	f := &r.flight
	if f.dumps == nil {
		f.dumps = make([]retainedDump, r.dumpCap)
	}
	if f.nDumps == r.dumpCap {
		f.dumpHead = (f.dumpHead + 1) % r.dumpCap
		f.dumpsDropped++
	} else {
		f.nDumps++
	}
	f.dumps[(f.dumpHead+f.nDumps-1)%r.dumpCap].seq = s.Seq
	f.lazy = min(f.lazy+1, f.nDumps)
}

// FlightEvents returns the current ring contents, oldest first.
func (r *Recorder) FlightEvents() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &r.flight
	if f.seq == 0 {
		return []FlightEvent{}
	}
	return renderDump(f.seq, r.windowLocked(f.seq, nil)).Events
}

// FlightDumps returns copies of the retained dumps, oldest first.
func (r *Recorder) FlightDumps() []FlightDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &r.flight
	out := make([]FlightDump, f.nDumps)
	for i := range out {
		out[i] = r.dumpLocked(i)
	}
	return out
}

// LastFlightDump returns a copy of the most recent dump, if any.
func (r *Recorder) LastFlightDump() (FlightDump, bool) {
	if r == nil {
		return FlightDump{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &r.flight
	if f.nDumps == 0 {
		return FlightDump{}, false
	}
	return r.dumpLocked(f.nDumps - 1), true
}

// FlightTrips counts every dump taken: the retained ones plus those
// evicted to keep DumpCapacity.
func (r *Recorder) FlightTrips() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &r.flight
	return uint64(f.nDumps) + f.dumpsDropped
}

// dumpLocked returns a caller-owned, rendered copy of retained dump i,
// oldest first.
func (r *Recorder) dumpLocked(i int) FlightDump {
	f := &r.flight
	d := &f.dumps[(f.dumpHead+i)%r.dumpCap]
	if i >= f.nDumps-f.lazy {
		return renderDump(d.seq, r.windowLocked(d.seq, nil))
	}
	return renderDump(d.seq, append([]FlightEvent(nil), d.events...))
}

// JSONL renders the dump as one JSON object per line: a header line
// (seq, time, reason) followed by one line per event, oldest first.
func (d FlightDump) JSONL() ([]byte, error) {
	var buf bytes.Buffer
	hdr := struct {
		Seq    uint64    `json:"seq"`
		Time   time.Time `json:"time"`
		Reason string    `json:"reason"`
		Events int       `json:"events"`
	}{d.Seq, d.Time, d.Reason, len(d.Events)}
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(hdr); err != nil {
		return nil, err
	}
	for _, ev := range d.Events {
		if err := enc.Encode(ev); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}
