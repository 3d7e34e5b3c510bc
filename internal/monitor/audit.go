package monitor

import (
	"math"
	"sync"
	"time"
)

// auditRing is the audit log: one bounded ring under one lock, filled
// in place so the hot path never allocates once the ring exists. It
// holds pointer-free entries, not Decisions: a Decision is rebuilt
// only when Audit reads it, so a ring costs under a quarter of the
// bytes and the GC never scans it.
type auditRing struct {
	mu   sync.Mutex
	ents []auditEntry // capacity Monitor.auditCap, allocated lazily
	// side is parallel to ents and allocated on the first decision an
	// entry cannot hold alone, so a healthy session never has one. It
	// is held by pointer to keep an idle fleet session in a smaller
	// allocation size class.
	side    *[]auditSide
	head    int // index of the oldest record
	n       int
	dropped uint64
	sink    func(Decision) // SetAuditSink; called under mu
}

// auditEntry is one audited decision in 24 bytes. code packs, from the
// low bit up: the op's opIndex (opInSide for any other op), the
// verdict, the degraded bit, the wide bit and the reason code.
type auditEntry struct {
	opTime, stamp int64 // unix nanoseconds; noTime for a zero time
	pid           int32
	code          uint32
}

// auditSide holds what one entry cannot: an op outside the known six,
// a reason with no code (degraded and RecordDenial reasons, stale
// reasons past the intern table's cap), and — under the wide bit — a
// pid outside int32 or a time outside the entry's nanosecond range.
type auditSide struct {
	op            Op
	reason        string
	opTime, stamp time.Time
	pid           int
}

// The packed code of an auditEntry.
const (
	codeOpMask       = 7 // bits 0–2: opIndex, or opInSide
	codeVerdictShift = 3 // bits 3–4: the Verdict (grant or deny)
	codeDegraded     = 1 << 5
	codeWide         = 1 << 6 // pid and both times live in the side slot
	codeReasonShift  = 7      // bits 7–31: the reason code

	opInSide = codeOpMask
)

// Reason codes: how an entry names its Reason. A code below rcStale is
// fixed; rcStale+id is the stale reason staleReasons interned as id.
const (
	rcSide uint32 = iota // the reason is in the side slot
	rcForceGrant
	rcObserveOnly
	rcNoSuchProcess
	rcPtraceGuard
	rcNoInteraction
	rcStampAfterOp
	rcWithinDelta
	rcStale
)

// fixedReasons maps a fixed reason code to its reason.
var fixedReasons = [rcStale]string{
	rcForceGrant:    ReasonForceGrant,
	rcObserveOnly:   ReasonObserveOnly,
	rcNoSuchProcess: ReasonNoSuchProcess,
	rcPtraceGuard:   ReasonPtraceGuard,
	rcNoInteraction: ReasonNoInteraction,
	rcStampAfterOp:  ReasonStampAfterOp,
	rcWithinDelta:   ReasonWithinDelta,
}

// knownOps maps an opIndex back to its op.
var knownOps = [6]Op{OpCopy, OpPaste, OpScreen, OpMic, OpCam, OpOther}

// noTime stands for the zero time.Time in an entry. entryNanos sends
// the second at each end of the int64-nanosecond range to the side
// slot, so no other instant maps to it.
const noTime = math.MinInt64

// entryNanos converts t for an entry. ok is false when t's Unix
// nanoseconds would not fit with a second to spare: the time goes to
// the side slot instead, never clamped.
func entryNanos(t time.Time) (n int64, ok bool) {
	const minSec, maxSec = math.MinInt64 / 1_000_000_000, math.MaxInt64 / 1_000_000_000
	switch sec := t.Unix(); {
	case sec > minSec && sec < maxSec:
		return sec*1e9 + int64(t.Nanosecond()), true
	case t.IsZero(): // year 1, outside the range
		return noTime, true
	}
	return 0, false
}

// entryTime is entryNanos's inverse, in UTC with no monotonic reading,
// as the audit store reads its times back.
func entryTime(n int64) time.Time {
	if n == noTime {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// sideAt returns slot i's side record, allocating the side slice on
// first use.
func (a *auditRing) sideAt(i int) *auditSide {
	if a.side == nil {
		side := make([]auditSide, len(a.ents))
		a.side = &side
	}
	return &(*a.side)[i]
}

// put fills slot i from d, whose op has opIndex oi and whose reason
// has code rc.
func (a *auditRing) put(i int, d *Decision, oi int, rc uint32) {
	e := &a.ents[i]
	code := rc<<codeReasonShift | uint32(d.Verdict)&3<<codeVerdictShift
	if d.Degraded {
		code |= codeDegraded
	}
	if oi >= 0 {
		code |= uint32(oi)
	} else {
		code |= opInSide
		a.sideAt(i).op = d.Op
	}
	if rc == rcSide {
		a.sideAt(i).reason = d.Reason
	}
	t, okT := entryNanos(d.OpTime)
	s, okS := entryNanos(d.Stamp)
	if pid := int32(d.PID); okT && okS && int(pid) == d.PID {
		e.opTime, e.stamp, e.pid = t, s, pid
	} else {
		code |= codeWide
		sd := a.sideAt(i)
		sd.opTime, sd.stamp, sd.pid = d.OpTime, d.Stamp, d.PID
	}
	e.code = code
}

// get rebuilds the decision in slot i. stale is a snapshot of
// staleReasons taken after every entry in the ring was written.
func (a *auditRing) get(i int, stale []string) Decision {
	e := &a.ents[i]
	d := Decision{
		PID:      int(e.pid),
		OpTime:   entryTime(e.opTime),
		Stamp:    entryTime(e.stamp),
		Verdict:  Verdict(e.code >> codeVerdictShift & 3),
		Degraded: e.code&codeDegraded != 0,
	}
	if oi := e.code & codeOpMask; oi == opInSide {
		d.Op = (*a.side)[i].op
	} else {
		d.Op = knownOps[oi]
	}
	switch rc := e.code >> codeReasonShift; {
	case rc == rcSide:
		d.Reason = (*a.side)[i].reason
	case rc < rcStale:
		d.Reason = fixedReasons[rc]
	default:
		d.Reason = stale[rc-rcStale]
	}
	if e.code&codeWide != 0 {
		sd := &(*a.side)[i]
		d.PID, d.OpTime, d.Stamp = sd.pid, sd.opTime.UTC(), sd.stamp.UTC()
	}
	return d
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

// appendAudit appends one decision, whose op has opIndex oi and whose
// reason has code rc, to the audit ring, oldest-out, and forwards it to
// the audit sink when one is attached.
func (m *Monitor) appendAudit(d *Decision, oi int, rc uint32) {
	a := &m.audit
	a.mu.Lock()
	if a.ents == nil {
		// Grown lazily but allocated once: the ring must not churn the
		// allocator on the hot decision path.
		a.ents = make([]auditEntry, m.auditCap)
	}
	// Wrapped by compare, not %: a division by the variable capacity
	// costs more than the rest of the slot index arithmetic.
	i := a.head + a.n
	if a.n == m.auditCap {
		i = a.head
		if a.head++; a.head == m.auditCap {
			a.head = 0
		}
		a.dropped++
	} else {
		if i >= m.auditCap {
			i -= m.auditCap
		}
		a.n++
	}
	a.put(i, d, oi, rc)
	if a.sink != nil {
		a.sink(*d)
	}
	a.mu.Unlock()
}

// Audit returns a copy of the audit log, oldest first. Times read back
// in UTC with no monotonic reading.
func (m *Monitor) Audit() []Decision {
	a := &m.audit
	a.mu.Lock()
	defer a.mu.Unlock()
	stale := staleReasons.snapshot()
	out := make([]Decision, a.n)
	for i := range out {
		out[i] = a.get((a.head+i)%m.auditCap, stale)
	}
	return out
}

// DroppedAudit reports how many audit records were evicted.
func (m *Monitor) DroppedAudit() uint64 {
	m.audit.mu.Lock()
	defer m.audit.mu.Unlock()
	return m.audit.dropped
}

// ResetAudit clears the audit log (used between experiment phases).
func (m *Monitor) ResetAudit() {
	a := &m.audit
	a.mu.Lock()
	a.head, a.n, a.dropped = 0, 0, 0
	a.mu.Unlock()
}
