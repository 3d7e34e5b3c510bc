package auditstore

import (
	"slices"
	"sort"
	"strings"
)

// Iterator streams records matching a query in ascending sequence
// order over an immutable snapshot of the store: records appended
// after Iter are not seen, records in the snapshot are never lost,
// and Next never blocks appenders. Like Scan, the narrowest
// applicable index drives iteration — a pid or verdict posting list
// when the query pins one, their galloping-merge intersection when it
// pins both — and a Since bound over a time-ordered stream seeks its
// starting position instead of scanning to it. Candidates are
// filtered on their index entries; a Record is built only for a
// match.
//
// An Iterator is not safe for concurrent use; create one per
// goroutine.
type Iterator struct {
	v view
	q Query
	// since and until are q's time bounds as entry nanoseconds.
	since, until int64

	// Iteration plan. postA drives posting iteration; postB, when
	// non-nil, is galloping-merge intersected with it.
	postA, postB []uint32
	usePost      bool
	i, j         int // cursors into postA/postB, or entry position in sequence mode

	// Precomputed filter flags: which Query fields still need checking
	// per candidate (posting lists already pin pid/verdict).
	checkPID, checkVerdict, checkSince, checkUntil, checkReason, checkSession bool

	// Reason-substring memo keyed on the kind id, direct-mapped: a
	// slot holds (id+1)<<1 | match, or 0 when empty. A stream repeats
	// a few hundred kinds, so most candidates find their kind's answer
	// here and only a kind's first sighting (or a slot collision) runs
	// strings.Contains.
	reasonMemo [256]uint32

	matched int
	done    bool
}

// iter plans q over a snapshot of the index. The snapshot — the entry
// and kind-table prefixes and the posting lists — is taken under the
// read lock; iteration itself is lock-free (all of them are
// append-only, so their captured prefixes are immutable).
func (m *index) iter(q Query) *Iterator {
	m.mu.RLock()
	defer m.mu.RUnlock()
	it := &Iterator{}
	m.planLocked(q, it)
	return it
}

// planLocked fills in the iteration plan for q. Callers hold at least
// the read lock.
func (m *index) planLocked(q Query, it *Iterator) {
	it.q = q
	it.v = m.viewLocked()
	it.checkSince = !q.Since.IsZero()
	it.checkUntil = !q.Until.IsZero()
	it.checkReason = q.Reason != ""
	it.checkSession = q.Session != 0
	if it.checkSince {
		it.since = boundNanos(q.Since)
	}
	if it.checkUntil {
		it.until = boundNanos(q.Until)
	}

	// Since seek: on a time-ordered stream the first candidate
	// position is found by binary search, not by scanning.
	start := 0
	if it.checkSince && m.timeOrdered {
		ents, since := it.v.ents, it.since
		start = sort.Search(len(ents), func(i int) bool { return ents[i].time >= since })
		it.checkSince = false // everything from start on passes
	}

	var pid, ver []uint32
	havePID, haveVer := false, false
	if q.PID != 0 {
		pid, havePID = m.byPID[q.PID], true
	}
	if q.Verdict != "" {
		ver, haveVer = m.byVerdict[q.Verdict], true
	}
	switch {
	case havePID && haveVer:
		it.usePost = true
		it.postA, it.postB = pid, ver
		if len(ver) < len(pid) {
			it.postA, it.postB = ver, pid
		}
		it.i, _ = slices.BinarySearch(it.postA, uint32(start))
		it.j, _ = slices.BinarySearch(it.postB, uint32(start))
	case havePID:
		it.usePost = true
		it.postA = pid
		it.i, _ = slices.BinarySearch(pid, uint32(start))
	case haveVer:
		it.usePost = true
		it.postA = ver
		it.i, _ = slices.BinarySearch(ver, uint32(start))
	default:
		it.i = start
	}
	// Posting lists pin their own field; the sequence path re-checks
	// both (cheaply — they are zero in this branch anyway).
	it.checkPID = !havePID && q.PID != 0
	it.checkVerdict = havePID && !haveVer && q.Verdict != ""
}

// match applies the residual filters to a candidate entry. It is
// written to stay small: the only call in the hot path is the outlined
// reason check, and that is a memo lookup by kind id in the common
// case.
func (it *Iterator) match(e *entry) bool {
	if it.checkSince && e.time < it.since {
		return false
	}
	if it.checkUntil && e.time >= it.until {
		return false
	}
	if it.checkPID && int(e.pid) != it.q.PID {
		return false
	}
	if it.checkVerdict && it.v.kinds[e.kind].verdict != it.q.Verdict {
		return false
	}
	if it.checkReason && !it.reasonOK(e.kind) {
		return false
	}
	if it.checkSession && e.session != it.q.Session {
		return false
	}
	return true
}

// reasonOK reports whether kind id's reason contains the query's
// reason substring, through the memo.
func (it *Iterator) reasonOK(id uint32) bool {
	slot := &it.reasonMemo[id%uint32(len(it.reasonMemo))]
	if *slot>>1 == id+1 {
		return *slot&1 == 1
	}
	ok := strings.Contains(it.v.kinds[id].reason, it.q.Reason)
	*slot = (id + 1) << 1
	if ok {
		*slot |= 1
	}
	return ok
}

// drain runs the iteration to completion through yield, the engine
// behind Scan. The common audit-triage shapes — one posting list or
// the plain sequence, with at most a reason-substring residual — get a
// hand-inlined loop (match is over the inlining budget, so the
// compiler cannot do this for us); everything else goes through the
// general nextPos path.
func (it *Iterator) drain(yield func(Record) bool) {
	v := &it.v
	var r Record
	limit := it.q.Limit
	if !it.checkSince && !it.checkUntil && !it.checkPID &&
		!it.checkVerdict && !it.checkSession && it.postB == nil && limit == 0 {
		// Unlimited fast shapes keep the live state across the opaque
		// yield call as small as possible: every extra local is a spill
		// and reload per record.
		if !it.checkReason {
			if it.usePost {
				for _, a := range it.postA[it.i:] {
					if v.fill(int(a), &r); !yield(r) {
						return
					}
				}
				return
			}
			for i := it.i; i < len(v.ents); i++ {
				if v.fill(i, &r); !yield(r) {
					return
				}
			}
			return
		}
		// Reason-residual loops.
		if it.usePost {
			for _, a := range it.postA[it.i:] {
				if !it.reasonOK(v.ents[a].kind) {
					continue
				}
				if v.fill(int(a), &r); !yield(r) {
					return
				}
			}
			return
		}
		for i := it.i; i < len(v.ents); i++ {
			if !it.reasonOK(v.ents[i].kind) {
				continue
			}
			if v.fill(i, &r); !yield(r) {
				return
			}
		}
		return
	}
	for {
		p := it.nextPos()
		if p < 0 {
			return
		}
		if v.fill(p, &r); !yield(r) {
			return
		}
	}
}

// nextPos returns the snapshot position of the next matching entry, or
// -1 when the iteration is exhausted.
func (it *Iterator) nextPos() int {
	if it.done || (it.q.Limit > 0 && it.matched >= it.q.Limit) {
		it.done = true
		return -1
	}
	ents := it.v.ents
	if it.usePost {
		if it.postB != nil {
			for it.i < len(it.postA) && it.j < len(it.postB) {
				a, b := it.postA[it.i], it.postB[it.j]
				switch {
				case a == b:
					it.i++
					it.j++
					if it.match(&ents[a]) {
						it.matched++
						return int(a)
					}
				case a < b:
					it.i = gallopTo(it.postA, it.i+1, b)
				default:
					it.j = gallopTo(it.postB, it.j+1, a)
				}
			}
			it.done = true
			return -1
		}
		for it.i < len(it.postA) {
			a := it.postA[it.i]
			it.i++
			if it.match(&ents[a]) {
				it.matched++
				return int(a)
			}
		}
		it.done = true
		return -1
	}
	for it.i < len(ents) {
		p := it.i
		it.i++
		if it.match(&ents[p]) {
			it.matched++
			return p
		}
	}
	it.done = true
	return -1
}

// Next builds the next matching record into the caller-owned out and
// reports whether one was found. It allocates nothing.
func (it *Iterator) Next(out *Record) bool {
	p := it.nextPos()
	if p < 0 {
		return false
	}
	it.v.fill(p, out)
	return true
}

// gallopTo returns the first index >= from with list[index] >= target,
// by exponential probing followed by binary search — O(log d) in the
// distance d advanced, which is what makes intersecting a short
// posting list with a long one cheap.
func gallopTo(list []uint32, from int, target uint32) int {
	if from >= len(list) || list[from] >= target {
		return from
	}
	step := 1
	lo := from
	hi := from + step
	for hi < len(list) && list[hi] < target {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > len(list) {
		hi = len(list)
	}
	// Invariant: list[lo] < target, list[hi] >= target (or hi == len).
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if list[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
