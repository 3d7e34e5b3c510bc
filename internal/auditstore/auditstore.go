// Package auditstore is the durable, queryable audit trail behind the
// Overhaul enforcement stack. The monitor's audit ring and the
// telemetry flight recorder are bounded in-memory structures that
// vanish on restart; at production scale the audit trail *is* the
// product — the record of what was granted, denied, and why is what
// turns an access-control monitor into something that can be
// investigated after the fact.
//
// FileStore is the one store: append-only binary segments
// (varint-framed, CRC-checked records, a block index in each sealed
// segment's footer) with group-committed appends and segment rotation,
// fronted by an in-memory index that answers every query over the
// durable records: one pointer-free 32-byte entry per record, in
// fixed-size chunks (times, session, pid, and the id of its {op,
// verdict, reason, degraded} tuple in a kind table holding each
// distinct tuple once),
// pid/verdict posting lists of uint32 positions, and a time-ordered
// Since seek. One frame decoder turns segment frames straight into
// entries, and a Record is built from its entry only when it is read.
// Open decodes sealed segments concurrently. Recovery is fail-closed in the
// repository's established
// sense: Open always replays to a consistent, CRC-verified prefix of
// the pre-crash stream and reports the exact truncation point — never
// a silent gap.
//
// Open and the cold ScanSegments read a directory through one segment
// merge, so they return the same trail: each sequence is taken from
// the first intact copy in (first sequence, file id) order, and the
// trail ends only at a sequence no intact copy holds. A cold query
// with a Since bound is the exception: it trusts sealed footers to
// skip and seek past frames it never decodes, so damage inside those
// frames does not end its trail as it ends recovery's. A leftover v1
// JSONL segment (seg-*.jsonl) fails both with an error naming the
// file; it is never read around.
//
// Records use the same decision schema the flight recorder dumps and
// the auditlog renders (pid, op, verdict, reason, stamp, times), so
// the durable trail, the black-box dump, and the log file cannot
// drift; TestRecordSchemaShared pins the encoding.
//
// A sealed segment is written once and never rewritten: the store is
// append-only, and only recovery's normalization writes a segment
// anywhere but at the end of the active one.
//
// Every write seam of the store consults a faultinject.Hook: torn
// segment writes (PointStoreAppend), group-commit windows
// (PointStoreBatch) and crashes mid-rotation (PointStoreRotate) are
// injectable, and the crash-recovery property test replays every
// window.
package auditstore

import (
	"errors"
	"strconv"
	"strings"
	"time"

	"overhaul/internal/monitor"
)

// Sentinel errors.
var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("auditstore: store closed")
	// ErrSeqMismatch is returned by Append and AppendBatch when a
	// record carries a non-zero sequence number that is not its place
	// in the stream.
	ErrSeqMismatch = errors.New("auditstore: append out of sequence")
	// ErrStoreFailed wraps the fault that broke a durable store. Every
	// operation after a torn write or an injected crash fails with it —
	// fail closed — until the directory is reopened and recovered.
	ErrStoreFailed = errors.New("auditstore: store failed, reopen to recover")
)

// Record is one audit-trail entry: the decision schema shared with the
// flight recorder's JSONL dumps and the auditlog rendering. Time is
// the operation time, Stamp the interaction stamp consulted (zero if
// none), Session the fleet tenant that produced the decision (0 for a
// single-desktop monitor).
type Record struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Session  uint64    `json:"session,omitempty"`
	PID      int       `json:"pid"`
	Op       string    `json:"op"`
	Verdict  string    `json:"verdict"`
	Reason   string    `json:"reason"`
	Stamp    time.Time `json:"stamp"` // zero time = no stamp consulted
	Degraded bool      `json:"degraded,omitempty"`
}

// FromDecision converts a monitor decision into the shared record
// schema. Seq is left zero: the store assigns it on append.
func FromDecision(d monitor.Decision, session uint64) Record {
	return Record{
		Time:     d.OpTime,
		Session:  session,
		PID:      d.PID,
		Op:       string(d.Op),
		Verdict:  d.Verdict.String(),
		Reason:   d.Reason,
		Stamp:    d.Stamp,
		Degraded: d.Degraded,
	}
}

// Decision converts the record back to the monitor's decision type.
// Unknown verdict strings yield the zero (invalid) verdict.
func (r Record) Decision() monitor.Decision {
	var v monitor.Verdict
	switch r.Verdict {
	case monitor.VerdictGrant.String():
		v = monitor.VerdictGrant
	case monitor.VerdictDeny.String():
		v = monitor.VerdictDeny
	}
	return monitor.Decision{
		PID:      r.PID,
		Op:       monitor.Op(r.Op),
		OpTime:   r.Time,
		Stamp:    r.Stamp,
		Verdict:  v,
		Reason:   r.Reason,
		Degraded: r.Degraded,
	}
}

// Detail renders the record's decision fields exactly as the flight
// recorder renders a "decision" event — "pid=N op=X verdict: reason".
// TestRecordSchemaShared pins the two byte-for-byte so the durable
// trail and the black-box dump cannot drift.
func (r Record) Detail() string {
	return "pid=" + strconv.Itoa(r.PID) + " op=" + r.Op +
		" " + r.Verdict + ": " + r.Reason
}

// Query selects records from a store. The zero value matches
// everything; Scan always yields in ascending sequence order.
type Query struct {
	// Since keeps records with Time >= Since (zero = unbounded).
	Since time.Time
	// Until keeps records with Time < Until (zero = unbounded).
	Until time.Time
	// PID keeps records for one process (0 = any; pids are >= 1).
	PID int
	// Verdict keeps one verdict class, "grant" or "deny" ("" = any).
	Verdict string
	// Reason keeps records whose reason contains this substring.
	Reason string
	// Session keeps one fleet session's records (0 = any).
	Session uint64
	// Limit caps the number of records yielded (0 = unlimited).
	Limit int
}

// Matches reports whether the record satisfies every filter except
// Limit (which is positional, applied by Scan).
func (q Query) Matches(r Record) bool {
	if !q.Since.IsZero() && r.Time.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !r.Time.Before(q.Until) {
		return false
	}
	if q.PID != 0 && r.PID != q.PID {
		return false
	}
	if q.Verdict != "" && r.Verdict != q.Verdict {
		return false
	}
	if q.Reason != "" && !strings.Contains(r.Reason, q.Reason) {
		return false
	}
	if q.Session != 0 && r.Session != q.Session {
		return false
	}
	return true
}

// ScanAll collects every record matching q into a slice.
func ScanAll(st *FileStore, q Query) ([]Record, error) {
	var out []Record
	err := st.Scan(q, func(r Record) bool {
		out = append(out, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
