package auditstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// index is the FileStore's in-memory query index: the durable records
// ordered by sequence number in fixed-size chunks of pointer-free
// entries, with secondary posting-list indexes by pid and verdict and
// a monotone-time fast path for Since queries. An entry holds a
// record's numeric fields; its strings and Degraded flag live once per
// distinct combination in the kind table. Appending never copies an
// entry already held: a full chunk stays where it is and the next
// record starts a new one. The index has its own read-write lock, so
// a query never waits on the commit leader's segment write, only on
// the indexing of a batch that is already durable.
type index struct {
	mu   sync.RWMutex
	base uint64 // sequence number of position 0; 1 for a fresh store
	n    int    // records held; the record at position i has Seq == base + i
	// chunks holds position i at chunks[i>>chunkBits][i&chunkMask].
	// Every chunk but the last has chunkLen entries; the last may be
	// shorter (a small store, or the tail of a reopened one) and grows
	// by copying until it reaches chunkLen. A chunk table slot is never
	// rewritten in place once a view may hold the table: entries are
	// written past every view's length, and a regrown chunk goes into
	// a fresh table.
	chunks [][]entry
	// kinds is append-only: an entry's kind id stays valid for the
	// life of the index.
	kinds kindTable
	// byPID and byVerdict are posting lists of positions, naturally
	// ascending because records are only ever pushed back. A kind's
	// verdict list is byVerdict[verdictOf[kind]], so indexing a record
	// hashes no string; verdicts maps a verdict to its list.
	byPID     map[int][]uint32
	byVerdict [][]uint32
	verdictOf []uint32
	verdicts  map[string]uint32
	// timeOrdered tracks whether record times are non-decreasing in
	// sequence order; while true, Since queries binary-search their
	// starting position instead of scanning.
	timeOrdered bool
}

// Index chunks hold chunkLen entries: 4,096 × 32 bytes = 128 KB.
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// entry is one indexed record without its strings: 32 bytes and no
// pointers, so the GC never scans the entry chunks. A zero Time or
// Stamp is stored as noTime.
type entry struct {
	time, stamp int64 // unix nanoseconds
	session     uint64
	pid         int32
	kind        uint32 // position in the kind table
}

// noTime stands for the zero time.Time in an entry. validateRecord
// keeps real record times inside UTC years 1678–2261, so no real time
// maps to it, and it sorts before all of them as the zero time does.
const noTime = math.MinInt64

// entryTime converts entry nanoseconds back to a record time, in UTC as a reopened store has
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
		byPID:       make(map[int][]uint32),
		verdicts:    make(map[string]uint32),
		timeOrdered: true,
	}
}

// verdictsLocked gives every kind added to the kind table since the
// last call its verdict's posting list. Callers hold the write lock.
func (m *index) verdictsLocked() {
	for len(m.verdictOf) < len(m.kinds.kinds) {
		v := m.kinds.kinds[len(m.verdictOf)].verdict
		slot, ok := m.verdicts[v]
		if !ok {
			slot = uint32(len(m.byVerdict))
			m.byVerdict = append(m.byVerdict, nil)
			m.verdicts[v] = slot
		}
		m.verdictOf = append(m.verdictOf, slot)
	}
}

// pushLocked appends entry e at the next position and posts it.
// Callers hold the write lock and have checked e's sequence number.
func (m *index) pushLocked(e entry) {
	pos := m.placeLocked(e)
	m.byPID[int(e.pid)] = append(m.byPID[int(e.pid)], pos)
}

// placeLocked is pushLocked but for the pid posting, which the caller
// makes: it stores e at the next position, posts it under its verdict,
// and returns the position. Callers hold the write lock.
func (m *index) placeLocked(e entry) uint32 {
	c, j := m.n>>chunkBits, m.n&chunkMask
	switch {
	case c == len(m.chunks):
		size := chunkLen
		if c == 0 {
			size = 64 // a small store stays small
		}
		m.chunks = append(m.chunks, make([]entry, size))
	case j == len(m.chunks[c]):
		// Only the last chunk may be short: regrow it into a fresh
		// table, leaving the old table and chunk to the views holding
		// them.
		grown := make([]entry, min(2*j, chunkLen))
		copy(grown, m.chunks[c])
		m.chunks = append(m.chunks[:c:c], grown)
	}
	m.chunks[c][j] = e
	return m.postLocked(&e)
}

// postLocked indexes e, already stored at the next position: it posts
// e under its verdict and returns the position. Callers hold the write
// lock.
func (m *index) postLocked(e *entry) uint32 {
	pos := m.n
	if pos > 0 && e.time < m.chunks[(pos-1)>>chunkBits][(pos-1)&chunkMask].time {
		m.timeOrdered = false
	}
	v := m.verdictOf[e.kind]
	m.byVerdict[v] = append(m.byVerdict[v], uint32(pos))
	m.n++
	return uint32(pos)
}

// addFrames indexes a committed batch: the frames the commit leader
// just wrote, read back through the recovery decoder's payload parse
// and kind table, so a live record is indexed exactly as a reopen
// would index it. The frames are the leader's own, so their CRCs are
// not recomputed. The first record added to an empty index fixes the
// base sequence; every later one must carry the next sequence number.
func (m *index) addFrames(buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(buf) > 0 {
		plen, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < plen+crcLen {
			return fmt.Errorf("index: malformed frame")
		}
		seq, e, degraded, tail, ok := decodePayload(buf[n : n+int(plen)])
		if ok {
			e.kind, ok = m.kinds.intern(degraded, tail)
		}
		if !ok {
			return fmt.Errorf("index: malformed record payload")
		}
		if m.n == 0 {
			m.base = seq
		} else if next := m.base + uint64(m.n); seq != next {
			return fmt.Errorf("%w: index holds through %d, got %d", ErrSeqMismatch, next-1, seq)
		}
		m.verdictsLocked()
		m.pushLocked(e)
		buf = buf[n+int(plen)+crcLen:]
	}
	return nil
}

// run is positions [from, to) of one segment's decoded entries: a
// piece of the merged stream.
type run struct {
	f        *frames
	from, to int
}

// adoptable reports whether r, placed at position pos, is a whole
// chunk: a full segment's decoded entries, starting at a chunk
// boundary, in an array that holds nothing else.
func (r run) adoptable(pos int) bool {
	return pos&chunkMask == 0 && r.from == 0 && r.to == chunkLen && cap(r.f.ents) == chunkLen
}

// load fills an empty index with the runs of a recovery merge, which
// follow one another in sequence, under one lock. Each segment's kinds
// are re-interned once into the index's table; the chunks and the pid
// and verdict posting lists are sized for the whole load before the
// first entry is placed, so no list grows by copying. A counting pass
// gives each record's pid a dense slot, so placing a record probes no
// map. A run that is a whole, full sealed segment starting at a chunk
// boundary becomes that chunk: its decoded entries are adopted with
// their kinds remapped in place, and none is copied.
func (m *index) load(runs []run) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	remaps := make([][]uint32, len(runs))
	for i, r := range runs {
		remap := make([]uint32, len(r.f.kinds.kinds))
		for k := range remap {
			remap[k] = m.kinds.internKind(&r.f.kinds.kinds[k])
		}
		remaps[i] = remap
		total += r.to - r.from
	}
	m.verdictsLocked()
	need := make([]int, len(m.byVerdict))
	slots := make(map[int32]int32) // pid → slot
	var perSlot []int
	slotOf := make([]int32, 0, total) // each record's pid slot
	for i, r := range runs {
		for _, e := range r.f.ents[r.from:r.to] {
			need[m.verdictOf[remaps[i][e.kind]]]++
			s, ok := slots[e.pid]
			if !ok {
				s = int32(len(perSlot))
				slots[e.pid] = s
				perSlot = append(perSlot, 0)
			}
			perSlot[s]++
			slotOf = append(slotOf, s)
		}
	}
	for v, n := range need {
		m.byVerdict[v] = slices.Grow(m.byVerdict[v], n)
	}
	byPID := make([][]uint32, len(perSlot))
	for s, n := range perSlot {
		byPID[s] = make([]uint32, 0, n)
	}
	if len(runs) > 0 {
		m.base = runs[0].f.first + uint64(runs[0].from)
	}
	m.chunks = make([][]entry, (total+chunkMask)>>chunkBits)
	pos := 0
	for _, r := range runs {
		if r.adoptable(pos) {
			m.chunks[pos>>chunkBits] = r.f.ents
		}
		pos += r.to - r.from
	}
	for c := range m.chunks {
		if m.chunks[c] == nil {
			m.chunks[c] = make([]entry, min(total-c<<chunkBits, chunkLen))
		}
	}
	for i, r := range runs {
		remap := remaps[i]
		adopted := r.adoptable(m.n)
		ents := r.f.ents[r.from:r.to]
		for j := range ents {
			s := slotOf[0]
			slotOf = slotOf[1:]
			if adopted {
				e := &ents[j]
				e.kind = remap[e.kind]
				byPID[s] = append(byPID[s], m.postLocked(e))
				continue
			}
			e := ents[j]
			e.kind = remap[e.kind]
			byPID[s] = append(byPID[s], m.placeLocked(e))
		}
	}
	for pid, s := range slots {
		m.byPID[int(pid)] = byPID[s]
	}
}

// view is an immutable prefix of the index: the chunk table and the
// kind table as captured under one read lock, and the record count.
// Entries are only ever written past the captured count and tables
// are append-only, so the captured prefix is never written and may be
// read lock-free, and every kind id in it is below len(kinds).
type view struct {
	base   uint64 // sequence number of position 0
	n      int    // positions [0, n) are readable
	chunks [][]entry
	kinds  []kind
}

// at returns the entry at position i < v.n.
func (v *view) at(i int) *entry {
	return &v.chunks[i>>chunkBits][i&chunkMask]
}

// fill builds the Record at position i of the view into r, field by
// field: a Record is 128 bytes, and building it in place spares the
// read paths a temporary and a copy per record. It is the one place a
// Record is built from stored data.
func (v *view) fill(i int, r *Record) {
	e := v.at(i)
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
	ks := m.kinds.kinds
	return view{base: m.base, n: m.n, chunks: m.chunks[:len(m.chunks):len(m.chunks)], kinds: ks[:len(ks):len(ks)]}
}

// get returns the record with sequence number seq, if indexed.
func (m *index) get(seq uint64) (Record, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if seq < m.base || seq >= m.base+uint64(m.n) {
		return Record{}, false
	}
	v := m.viewLocked()
	var r Record
	v.fill(int(seq-m.base), &r)
	return r, true
}

// snapshot captures the whole index as a view.
func (m *index) snapshot() view {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.viewLocked()
}

// count returns the number of indexed records.
func (m *index) count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}

// lastSeq returns the highest indexed sequence number (0 when empty).
func (m *index) lastSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.n == 0 {
		return 0
	}
	return m.base + uint64(m.n) - 1
}

// scan yields every indexed record matching q. The narrowest
// applicable secondary index drives the iteration: a pid or verdict
// posting list when the query pins one, their galloping-merge
// intersection when it pins both, else the sequence-ordered entries
// themselves, entered by binary search on time when the stream is
// time-ordered and Since is set. Candidates are filtered on their
// entries — no Record is built until it is actually yielded. The plan
// is made under the read lock and drained after it is released, over
// the immutable snapshot it captured, as Iter does: yield may append
// to the store, and a slow yield holds up no commit.
func (m *index) scan(q Query, yield func(Record) bool) {
	var it Iterator
	m.mu.RLock()
	m.planLocked(q, &it)
	m.mu.RUnlock()
	it.drain(yield)
}
