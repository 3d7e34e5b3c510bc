package auditstore

import (
	"fmt"
	"sync"
)

// index is the FileStore's in-memory query index: the durable records
// ordered by sequence number in one contiguous slice, with secondary
// posting-list indexes by pid and verdict and a monotone-time fast
// path for Since queries. It has its own read-write lock, so a query
// never waits on the commit leader's segment write, only on the
// indexing of a batch that is already durable.
type index struct {
	mu   sync.RWMutex
	base uint64   // sequence number of recs[0]; 1 for a fresh store
	recs []Record // recs[i].Seq == base + i
	// byPID and byVerdict are posting lists of positions into recs,
	// naturally ascending because records are only ever pushed back.
	byPID     map[int][]int
	byVerdict map[string][]int
	// timeOrdered tracks whether record times are non-decreasing in
	// sequence order; while true, Since queries binary-search their
	// starting position instead of scanning.
	timeOrdered bool
}

func newIndex() *index {
	return &index{
		base:        1,
		byPID:       make(map[int][]int),
		byVerdict:   make(map[string][]int),
		timeOrdered: true,
	}
}

// add indexes already-sequenced records under one lock: a committed
// batch, or one record of recovery replay. The first record added to
// an empty index fixes the base sequence; every later one must carry
// the next sequence number.
func (m *index) add(recs ...Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.recs) == 0 && len(recs) > 0 {
		m.base = recs[0].Seq
	}
	for i := range recs {
		r := &recs[i]
		pos := len(m.recs)
		if next := m.base + uint64(pos); r.Seq != next {
			return fmt.Errorf("%w: index holds through %d, got %d", ErrSeqMismatch, next-1, r.Seq)
		}
		if pos > 0 && r.Time.Before(m.recs[pos-1].Time) {
			m.timeOrdered = false
		}
		m.recs = append(m.recs, *r)
		m.byPID[r.PID] = append(m.byPID[r.PID], pos)
		m.byVerdict[r.Verdict] = append(m.byVerdict[r.Verdict], pos)
	}
	return nil
}

// get returns the record with sequence number seq, if indexed.
func (m *index) get(seq uint64) (Record, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if seq < m.base || seq >= m.base+uint64(len(m.recs)) {
		return Record{}, false
	}
	return m.recs[seq-m.base], true
}

// positions returns the records at index positions [from, to) — the
// append-only backing slice itself, so the prefix it names is
// immutable and may be read after the lock is released, but never
// written.
func (m *index) positions(from, to int) ([]Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if from < 0 || to > len(m.recs) || from > to {
		return nil, fmt.Errorf("index positions [%d, %d) outside [0, %d)", from, to, len(m.recs))
	}
	return m.recs[from:to:to], nil
}

// count returns the number of indexed records.
func (m *index) count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.recs)
}

// lastSeq returns the highest indexed sequence number (0 when empty).
func (m *index) lastSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.recs) == 0 {
		return 0
	}
	return m.base + uint64(len(m.recs)) - 1
}

// scan yields every indexed record matching q. The narrowest
// applicable secondary index drives the iteration: a pid or verdict
// posting list when the query pins one, their galloping-merge
// intersection when it pins both, else the sequence-ordered slice
// itself, entered by binary search on time when the stream is
// time-ordered and Since is set. Candidates are filtered in place — no
// Record is copied until it is actually yielded.
func (m *index) scan(q Query, yield func(Record) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var it Iterator
	it.q = q
	m.planLocked(q, &it)
	it.drain(yield)
}
