package auditstore

import (
	"fmt"
	"sync"
)

// MemStore is the indexed in-memory backend: records ordered by
// sequence number in one contiguous slice, with secondary posting-list
// indexes by pid and verdict and a monotone-time fast path for Since
// queries. It is safe for concurrent use and is also the query index
// the FileStore keeps in front of its segments, so the two backends
// answer every query through identical code.
type MemStore struct {
	mu     sync.RWMutex
	closed bool
	base   uint64   // sequence number of recs[0]; 1 for a fresh store
	recs   []Record // recs[i].Seq == base + i
	// byPID and byVerdict are posting lists of positions into recs,
	// naturally ascending because appends only ever push back.
	byPID     map[int][]int
	byVerdict map[string][]int
	// timeOrdered tracks whether record times are non-decreasing in
	// sequence order; while true, Since queries binary-search their
	// starting position instead of scanning.
	timeOrdered bool
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		base:        1,
		byPID:       make(map[int][]int),
		byVerdict:   make(map[string][]int),
		timeOrdered: true,
	}
}

// Append implements Store.
func (m *MemStore) Append(r Record) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	return m.appendLocked(r)
}

// appendLocked assigns the next sequence number and indexes the record.
func (m *MemStore) appendLocked(r Record) (uint64, error) {
	next := m.base + uint64(len(m.recs))
	if r.Seq != 0 && r.Seq != next {
		return 0, ErrSeqMismatch
	}
	r.Seq = next
	if n := len(m.recs); n > 0 && r.Time.Before(m.recs[n-1].Time) {
		m.timeOrdered = false
	}
	pos := len(m.recs)
	m.recs = append(m.recs, r)
	m.byPID[r.PID] = append(m.byPID[r.PID], pos)
	m.byVerdict[r.Verdict] = append(m.byVerdict[r.Verdict], pos)
	return next, nil
}

// adopt seeds the store with an already-sequenced record during
// recovery replay. The first adopted record fixes the base sequence.
func (m *MemStore) adopt(r Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.recs) == 0 {
		m.base = r.Seq
	}
	_, err := m.appendLocked(r)
	return err
}

// Get implements Store.
func (m *MemStore) Get(seq uint64) (Record, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return Record{}, false, ErrClosed
	}
	if seq < m.base || seq >= m.base+uint64(len(m.recs)) {
		return Record{}, false, nil
	}
	return m.recs[seq-m.base], true, nil
}

// positions returns the records at index positions [from, to) — the
// append-only backing slice itself, so the prefix it names is
// immutable and may be read after the lock is released, but never
// written.
func (m *MemStore) positions(from, to int) ([]Record, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if from < 0 || to > len(m.recs) || from > to {
		return nil, fmt.Errorf("index positions [%d, %d) outside [0, %d)", from, to, len(m.recs))
	}
	return m.recs[from:to:to], nil
}

// Count implements Store.
func (m *MemStore) Count() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, ErrClosed
	}
	return len(m.recs), nil
}

// LastSeq returns the highest assigned sequence number (0 when empty).
func (m *MemStore) LastSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.recs) == 0 {
		return 0
	}
	return m.base + uint64(len(m.recs)) - 1
}

// Scan implements Store. The narrowest applicable secondary index
// drives the iteration: a pid or verdict posting list when the query
// pins one, their galloping-merge intersection when it pins both,
// else the sequence-ordered slice itself, entered by binary search on
// time when the stream is time-ordered and Since is set. Candidates
// are filtered in place — no Record is copied until it is actually
// yielded.
func (m *MemStore) Scan(q Query, yield func(Record) bool) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	var it Iterator
	it.q = q
	m.planLocked(q, &it)
	it.drain(yield)
	return nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.closed = true
	return nil
}
