package fleet

import (
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/monitor"
)

// TestSessionAuditSink pins the durable-audit bridge: an attached sink
// sees every decision the session makes, in audit order, even after
// the bounded ring has started evicting — the sink is how a tenant's
// trail outlives the ring.
func TestSessionAuditSink(t *testing.T) {
	f := newTestFleet(t, Config{AuditCapacity: 4})
	s := f.CreateSession()
	var sunk []monitor.Decision
	s.SetAuditSink(func(d monitor.Decision) { sunk = append(sunk, d) })
	pid, err := s.Spawn()
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := s.Notify(pid, base); err != nil {
		t.Fatalf("Notify: %v", err)
	}

	const n = 10
	for i := 0; i < n; i++ {
		if _, err := s.Decide(pid, monitor.OpMic, base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("Decide %d: %v", i, err)
		}
	}

	if len(sunk) != n {
		t.Fatalf("sink saw %d decisions, want %d", len(sunk), n)
	}
	ring := s.Audit()
	if len(ring) != 4 {
		t.Fatalf("ring holds %d decisions, want 4 (capacity)", len(ring))
	}
	// The ring is the tail of the sink stream, element for element.
	for i, d := range ring {
		if sunk[n-4+i] != d {
			t.Fatalf("ring[%d] != sink[%d]:\n ring %+v\n sink %+v", i, n-4+i, d, sunk[n-4+i])
		}
	}
	// Sink order is decision order: op times ascend.
	for i := 1; i < len(sunk); i++ {
		if sunk[i].OpTime.Before(sunk[i-1].OpTime) {
			t.Fatalf("sink out of order at %d: %v after %v", i, sunk[i].OpTime, sunk[i-1].OpTime)
		}
	}
}

// TestSessionBatchSink wires sessions through the batching sink into a
// shared durable store — the overhaul-load -store path: every decision
// from every session lands durably, stamped with its session id, in
// that session's decision order, and the store commits them in grouped
// batches rather than one durable ack per decision.
func TestSessionBatchSink(t *testing.T) {
	f := newTestFleet(t, Config{})
	st, err := auditstore.Open(t.TempDir(), auditstore.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer st.Close()

	const sessions = 3
	const perSession = 10
	var stats auditstore.SinkStats
	sinks := make([]*auditstore.BatchSink, sessions)
	ids := make([]uint64, sessions)
	for i := range sinks {
		s := f.CreateSession()
		ids[i] = s.ID()
		sinks[i] = auditstore.NewBatchSink(st, s.ID(), 4, &stats)
		s.SetAuditSink(sinks[i].Sink())
		pid, err := s.Spawn()
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		if err := s.Notify(pid, base); err != nil {
			t.Fatalf("Notify: %v", err)
		}
		for j := 0; j < perSession; j++ {
			if _, err := s.Decide(pid, monitor.OpMic, base.Add(time.Duration(j)*time.Second)); err != nil {
				t.Fatalf("Decide: %v", err)
			}
		}
	}
	for _, bs := range sinks {
		bs.Flush()
	}

	if n, err := st.Count(); err != nil || n != sessions*perSession {
		t.Fatalf("store holds %d records (err=%v), want %d", n, err, sessions*perSession)
	}
	if got := stats.Errors.Load(); got != 0 {
		t.Fatalf("sink dropped %d acks", got)
	}
	bstats := st.BatchStats()
	if bstats.MaxBatch < 4 {
		t.Fatalf("max batch %d, want >= 4 (sink batches of 4 never coalesced)", bstats.MaxBatch)
	}
	if bstats.Batches >= uint64(sessions*perSession) {
		t.Fatalf("%d batches for %d records: sink did not batch", bstats.Batches, sessions*perSession)
	}
	// Per session: perSession records, in decision (time) order.
	for _, id := range ids {
		recs, err := auditstore.ScanAll(st, auditstore.Query{Session: id})
		if err != nil {
			t.Fatalf("scan session %d: %v", id, err)
		}
		if len(recs) != perSession {
			t.Fatalf("session %d has %d records, want %d", id, len(recs), perSession)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Time.Before(recs[i-1].Time) {
				t.Fatalf("session %d records out of order at %d", id, i)
			}
		}
	}
}
