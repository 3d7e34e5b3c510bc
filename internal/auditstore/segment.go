package auditstore

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Segment files are named seg-<8 hex file id>.seg. The id is a
// monotonically increasing file counter, *not* a sequence number:
// compaction writes merged records into a fresh, higher id so its
// output can never collide with a source file. Compaction and
// normalization stage through a ".tmp" suffix; a leftover tmp file is
// a crashed staging write and is discarded on open.
//
// The retired v1 JSONL format (seg-<id>.jsonl) is not read. A
// directory that still holds such a file is refused with an error
// naming it: reading around it would present a gapped trail as whole.
const (
	segPrefix   = "seg-"
	segSuffix   = ".seg"
	v1SegSuffix = ".jsonl"
	tmpSuffix   = ".tmp"
)

// parseSegID extracts the file id from a segment file name.
func parseSegID(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	if rest, ok = strings.CutSuffix(rest, segSuffix); !ok || len(rest) != 8 {
		return 0, false
	}
	id, err := strconv.ParseUint(rest, 16, 64)
	return id, err == nil
}

// segment is one segment file as the merge reads it. A sealed segment
// with an intact footer yields its sequence range and time bound from
// the footer alone, and its frames are decoded only when the merge
// enters it; any other segment is decoded once at load for the same
// metadata.
type segment struct {
	name   string
	id     uint64
	data   []byte
	footer []blockEntry // intact block index; nil when unsealed or damaged
	// blocks is the block index a load-time decode rebuilt (segments
	// without an intact footer), so an adopted active segment can keep
	// indexing where it left off.
	blocks []blockEntry
	// first and last bound the sequences held (meaningful when count >
	// 0); maxT is the newest record time, math.MinInt64 when none.
	first, last uint64
	count       int
	maxT        int64
	// trunc is the damage a load-time decode met (segments without an
	// intact footer only).
	trunc *Truncation
}

// loadSegment reads one segment file and extracts its merge metadata.
func loadSegment(dir, name string, id uint64) (*segment, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	s := &segment{name: name, id: id, data: data, maxT: math.MinInt64}
	if !hasSegMagic(data) {
		s.trunc = &Truncation{Offset: 0, Reason: "bad segment header"}
		return s, nil
	}
	if s.footer = parseFooter(data); s.footer != nil {
		// Sentinel entry: seq is one past the last record, maxBefore is
		// the whole-segment prefix maximum. Intra-segment sequences are
		// contiguous, so the footer alone gives the range.
		sent := s.footer[len(s.footer)-1]
		s.first, s.last, s.maxT = s.footer[0].seq, sent.seq-1, sent.maxBefore
		s.count = int(sent.seq - s.first)
		return s, nil
	}
	_, s.trunc = streamFrames(data, len(segMagicV2), make(strtab), func(r *Record, off int) bool {
		if s.count == 0 {
			s.first = r.Seq
		}
		if s.count%indexEvery == 0 {
			s.blocks = append(s.blocks, blockEntry{seq: r.Seq, off: uint64(off), maxBefore: s.maxT})
		}
		s.last = r.Seq
		s.count++
		if tn, ok, err := timeNanos(r.Time); ok && err == nil && tn > s.maxT {
			s.maxT = tn
		}
		return true
	})
	return s, nil
}

// listSegments loads every segment file in dir, ordered for the merge
// by (first sequence, file id): compaction output overlaps its sources
// at the same sequences but carries a higher id, and a segment with no
// intact frame sorts last. tmps names the staging leftovers found.
func listSegments(dir string) (segs []*segment, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			tmps = append(tmps, name)
			continue
		}
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, v1SegSuffix) {
			return nil, nil, fmt.Errorf("%s: v1 JSONL segment; only v2 %s segments are read",
				filepath.Join(dir, name), segSuffix)
		}
		id, ok := parseSegID(name)
		if !ok {
			continue // not ours; leave foreign files alone
		}
		s, err := loadSegment(dir, name, id)
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, s)
	}
	slices.SortFunc(segs, func(a, b *segment) int {
		return cmp.Or(cmp.Compare(a.sortSeq(), b.sortSeq()), cmp.Compare(a.id, b.id))
	})
	return segs, tmps, nil
}

// sortSeq is the segment's merge-order key.
func (s *segment) sortSeq() uint64 {
	if s.count == 0 {
		return math.MaxUint64
	}
	return s.first
}

// merger reads listed segments as one record stream. Every sequence
// is taken from the first intact copy in (first sequence, file id)
// order, and the stream ends only at a sequence that no intact copy
// holds: the longest contiguous, CRC-verified prefix. Damage in one
// copy costs nothing when a later copy (a compaction output beside
// its uncleaned sources) holds the same sequences. Recovery and the
// cold scan both read a directory through walk, so they cannot
// disagree on what it holds — except that a seek, which trusts the
// footer, does not decode the frames it skips.
type merger struct {
	// seek, when set, may start a sealed segment at a later block; the
	// frames it skips are vouched for by the footer, not decoded. A
	// block past the segment's last record skips the segment whole.
	seek func(s *segment) (blockEntry, bool)

	next    uint64 // next sequence the stream needs; 0 before the first
	overlap bool   // a copy repeated sequences already merged
	// stop indexes the first segment beyond the end of the stream
	// (len(segs) when the walk used every segment).
	stop int
	// The first damage or sequence gap met at the stream's frontier;
	// reason is "" when there was none.
	file   string
	offset int
	reason string
	// droppedBytes counts the undecodable bytes of damaged segments.
	droppedBytes int
}

// walk reads segs in order, handing every record of the merged stream
// to emit, its strings interned across the walk; emit returning false
// ends the walk early.
func (m *merger) walk(segs []*segment, emit func(r *Record) bool) {
	m.stop = len(segs)
	strs := make(strtab)
	for i, s := range segs {
		if s.count == 0 {
			if s.trunc != nil {
				m.damage(s, s.trunc)
			}
			continue
		}
		if m.next != 0 && s.last < m.next {
			m.overlap = true // every sequence came from an earlier copy
			continue
		}
		if m.next != 0 && s.first > m.next {
			// Later segments start later still: no copy holds m.next.
			m.note(s.name, len(segMagicV2), m.gap(s.first))
			m.stop = i
			return
		}
		start := len(segMagicV2)
		if m.seek != nil && s.footer != nil {
			if b, ok := m.seek(s); ok {
				if b.seq > m.next {
					m.next = b.seq
				}
				if b.seq > s.last {
					continue
				}
				start = int(b.off)
			}
		}
		var hole *Truncation
		done := false
		_, trunc := streamFrames(s.data, start, strs, func(r *Record, off int) bool {
			if r.Seq < m.next {
				m.overlap = true
				return true
			}
			if m.next != 0 && r.Seq > m.next {
				// A hole inside one copy is damage: a later copy may
				// still hold the missing sequences.
				hole = &Truncation{Offset: off, Reason: m.gap(r.Seq)}
				return false
			}
			m.next = r.Seq + 1
			if !emit(r) {
				done = true
				return false
			}
			return true
		})
		if done {
			return
		}
		if hole != nil {
			trunc = hole
		}
		if trunc != nil {
			m.damage(s, trunc)
		}
	}
}

// gap renders the reason a stream cannot continue at sequence seq.
func (m *merger) gap(seq uint64) string {
	return fmt.Sprintf("sequence gap: have %d, next record is %d", m.next-1, seq)
}

// damage accounts for a damaged segment.
func (m *merger) damage(s *segment, t *Truncation) {
	m.droppedBytes += len(s.data) - t.Offset
	m.note(s.name, t.Offset, t.Reason)
}

// note records the first damage or gap.
func (m *merger) note(file string, offset int, reason string) {
	if m.reason == "" {
		m.file, m.offset, m.reason = file, offset, reason
	}
}
