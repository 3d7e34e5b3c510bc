package auditstore

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// index is the FileStore's in-memory query index: the durable records
// ordered by sequence number in one contiguous, pointer-free entry
// slice, with secondary posting-list indexes by pid and verdict and a
// monotone-time fast path for Since queries. An entry holds a record's
// numeric fields; its strings and Degraded flag live once per distinct
// combination in the kind table. It has its own read-write lock, so a
// query never waits on the commit leader's segment write, only on the
// indexing of a batch that is already durable.
type index struct {
	mu   sync.RWMutex
	base uint64  // sequence number of ents[0]; 1 for a fresh store
	ents []entry // record at ents[i] has Seq == base + i
	// kinds is append-only: an entry's kind id stays valid for the
	// life of the index. kindIDs maps each tuple back to its id.
	kinds   []kind
	kindIDs map[kind]uint32
	// lastKind and lastKindID memoize the most recent intern: streams
	// repeat their tuples, and the policy evaluator hands out cached
	// reason strings, so the memo's string compares usually
	// short-circuit on the data pointer.
	lastKind   kind
	lastKindID uint32
	// byPID and byVerdict are posting lists of positions into ents,
	// naturally ascending because records are only ever pushed back.
	byPID     map[int][]uint32
	byVerdict map[string][]uint32
	// timeOrdered tracks whether record times are non-decreasing in
	// sequence order; while true, Since queries binary-search their
	// starting position instead of scanning.
	timeOrdered bool
}

// entry is one indexed record without its strings: 32 bytes and no
// pointers, so the GC never scans the entry slice. A zero Time or
// Stamp is stored as noTime.
type entry struct {
	time, stamp int64 // unix nanoseconds
	session     uint64
	pid         int32
	kind        uint32 // position in index.kinds
}

// kind is one distinct {Op, Verdict, Reason, Degraded} tuple.
type kind struct {
	op, verdict, reason string
	degraded            bool
}

// noTime stands for the zero time.Time in an entry. validateRecord
// keeps real record times inside UTC years 1678–2261, so no real time
// maps to it, and it sorts before all of them as the zero time does.
const noTime = math.MinInt64

// entryNanos converts a validated record time for an entry.
func entryNanos(t time.Time) int64 {
	if t.IsZero() {
		return noTime
	}
	return t.UnixNano()
}

// entryTime is entryNanos's inverse, in UTC as a reopened store has
// always returned its times.
func entryTime(n int64) time.Time {
	if n == noTime {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// boundNanos converts a non-zero query time bound t to the int64 b
// with e >= b exactly when the record time behind entry time e is not
// before t, for every e an entry can hold.
func boundNanos(t time.Time) int64 {
	switch {
	case !t.After(time.Time{}):
		return noTime // even a zero record time is not before t
	case t.Before(time.Unix(0, noTime+1)):
		return noTime + 1 // only a zero record time is before t
	case t.After(time.Unix(0, math.MaxInt64)):
		return math.MaxInt64 // every record time is before t
	}
	return t.UnixNano()
}

func newIndex() *index {
	return &index{
		base:        1,
		kindIDs:     make(map[kind]uint32),
		byPID:       make(map[int][]uint32),
		byVerdict:   make(map[string][]uint32),
		timeOrdered: true,
	}
}

// internLocked returns the id of k in the kind table, appending it on
// first sight. Callers hold the write lock.
func (m *index) internLocked(k kind) uint32 {
	if len(m.kinds) > 0 && k == m.lastKind {
		return m.lastKindID
	}
	id, ok := m.kindIDs[k]
	if !ok {
		id = uint32(len(m.kinds))
		m.kinds = append(m.kinds, k)
		m.kindIDs[k] = id
	}
	m.lastKind, m.lastKindID = k, id
	return id
}

// add indexes already-sequenced records under one lock: a committed
// batch, or one record of recovery replay. The first record added to
// an empty index fixes the base sequence; every later one must carry
// the next sequence number.
func (m *index) add(recs ...Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ents) == 0 && len(recs) > 0 {
		m.base = recs[0].Seq
	}
	for i := range recs {
		r := &recs[i]
		pos := len(m.ents)
		if next := m.base + uint64(pos); r.Seq != next {
			return fmt.Errorf("%w: index holds through %d, got %d", ErrSeqMismatch, next-1, r.Seq)
		}
		e := entry{
			time:    entryNanos(r.Time),
			stamp:   entryNanos(r.Stamp),
			session: r.Session,
			pid:     int32(r.PID),
			kind:    m.internLocked(kind{r.Op, r.Verdict, r.Reason, r.Degraded}),
		}
		if pos > 0 && e.time < m.ents[pos-1].time {
			m.timeOrdered = false
		}
		m.ents = append(m.ents, e)
		m.byPID[r.PID] = append(m.byPID[r.PID], uint32(pos))
		m.byVerdict[r.Verdict] = append(m.byVerdict[r.Verdict], uint32(pos))
	}
	return nil
}

// view is an immutable prefix of the index: entries and the kind table
// as captured under one read lock. Both slices are append-only, so the
// captured prefixes are never written and may be read lock-free, and
// every kind id in ents is below len(kinds).
type view struct {
	base  uint64 // sequence number of ents[0]
	ents  []entry
	kinds []kind
}

// fill builds the Record at position i of the view into r, field by
// field: a Record is 128 bytes, and building it in place spares the
// read paths a temporary and a copy per record.
func (v *view) fill(i int, r *Record) {
	e := &v.ents[i]
	k := &v.kinds[e.kind]
	r.Seq = v.base + uint64(i)
	r.Time = entryTime(e.time)
	r.Session = e.session
	r.PID = int(e.pid)
	r.Op, r.Verdict, r.Reason = k.op, k.verdict, k.reason
	r.Stamp = entryTime(e.stamp)
	r.Degraded = k.degraded
}

// viewLocked captures the whole index. Callers hold at least the read
// lock.
func (m *index) viewLocked() view {
	return view{base: m.base, ents: m.ents[:len(m.ents):len(m.ents)], kinds: m.kinds[:len(m.kinds):len(m.kinds)]}
}

// get returns the record with sequence number seq, if indexed.
func (m *index) get(seq uint64) (Record, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if seq < m.base || seq >= m.base+uint64(len(m.ents)) {
		return Record{}, false
	}
	v := m.viewLocked()
	var r Record
	v.fill(int(seq-m.base), &r)
	return r, true
}

// positions returns the records at index positions [from, to) as a
// view.
func (m *index) positions(from, to int) (view, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if from < 0 || to > len(m.ents) || from > to {
		return view{}, fmt.Errorf("index positions [%d, %d) outside [0, %d)", from, to, len(m.ents))
	}
	v := m.viewLocked()
	v.base += uint64(from)
	v.ents = v.ents[from:to]
	return v, nil
}

// count returns the number of indexed records.
func (m *index) count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.ents)
}

// lastSeq returns the highest indexed sequence number (0 when empty).
func (m *index) lastSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.ents) == 0 {
		return 0
	}
	return m.base + uint64(len(m.ents)) - 1
}

// scan yields every indexed record matching q. The narrowest
// applicable secondary index drives the iteration: a pid or verdict
// posting list when the query pins one, their galloping-merge
// intersection when it pins both, else the sequence-ordered entries
// themselves, entered by binary search on time when the stream is
// time-ordered and Since is set. Candidates are filtered on their
// entries — no Record is built until it is actually yielded.
func (m *index) scan(q Query, yield func(Record) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var it Iterator
	m.planLocked(q, &it)
	it.drain(yield)
}
