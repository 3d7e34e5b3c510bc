package auditstore

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Segment files are named seg-<8 hex file id>.seg. The id is a
// monotonically increasing file counter, *not* a sequence number:
// recovery's normalization writes the surviving records into a fresh,
// higher id so its output can never collide with a source file.
// Normalization stages through a ".tmp" suffix; a leftover tmp file is
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

// segment is one segment file as the merge reads it: its footer, if
// intact, and its frames decoded into index entries. The merge orders
// segments, and judges overlaps and gaps, by the sequence range a
// segment holds: its footer's when the footer is intact, else the
// range its frames decoded to.
type segment struct {
	name   string
	id     uint64
	size   int          // file length in bytes
	footer []blockEntry // intact block index; nil when unsealed or damaged
	// first and last bound the sequences held (meaningful when count >
	// 0); maxT is the newest record time, math.MinInt64 when none.
	first, last uint64
	count       int
	maxT        int64
	// frames is the decode. A segment without an intact footer also
	// gets its block index rebuilt, so an adopted active segment can
	// keep indexing where it left off.
	frames frames
	// start is the byte offset the decode started at. seek, when
	// seeked, is the first sequence a footer seek vouched for: the
	// decode started at its block, and a seek past the last record
	// skipped the decode entirely.
	start  int
	seek   uint64
	seeked bool
}

// seekFunc picks the block a sealed segment's decode may start at (see
// merger); ok false decodes the segment whole.
type seekFunc func(s *segment) (b blockEntry, ok bool)

// load reads the segment file into *buf and decodes it, starting
// where seek says. *buf is the caller's to reuse for the next file:
// nothing decoded keeps a slice of it (kinds copy their tails into
// strings, parseFooter builds its own entries, truncations hold
// offsets).
func (s *segment) load(dir string, seek seekFunc, buf *[]byte) error {
	data, err := readFile(filepath.Join(dir, s.name), *buf)
	*buf = data
	if err != nil {
		return err
	}
	s.size, s.maxT = len(data), math.MinInt64
	if !hasSegMagic(data) {
		s.frames.trunc = &Truncation{Offset: 0, Reason: "bad segment header"}
		return nil
	}
	s.start = len(segMagicV2)
	if s.footer = parseFooter(data); s.footer != nil {
		// Sentinel entry: seq is one past the last record, maxBefore is
		// the whole-segment prefix maximum. Intra-segment sequences are
		// contiguous, so the footer alone gives the range, and sizes the
		// decode.
		sent := s.footer[len(s.footer)-1]
		s.first, s.last, s.maxT = s.footer[0].seq, sent.seq-1, sent.maxBefore
		s.count = int(sent.seq - s.first)
		if seek != nil {
			if b, ok := seek(s); ok {
				s.seek, s.seeked = b.seq, true
				if b.seq > s.last {
					return nil
				}
				s.start = int(min(b.off, uint64(len(data))))
			}
		}
		// A footer's count is only a claim: the file bounds the room.
		room := (len(data) - s.start) / minFrame
		if held := sent.seq - s.first; held < uint64(room) {
			room = int(held)
		}
		s.frames.ents = make([]entry, 0, room)
	}
	s.frames.decode(data, s.start, s.footer, s.footer == nil)
	if s.footer == nil && len(s.frames.ents) > 0 {
		s.first, s.count, s.maxT = s.frames.first, len(s.frames.ents), s.frames.maxT
		s.last = s.first + uint64(s.count) - 1
	}
	return nil
}

// readFile reads the whole file at path as os.ReadFile does, but into
// buf's storage, which it grows only when the file is larger: a
// loadSegments worker reuses one buffer for every file it reads,
// instead of allocating and zeroing one per file.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer func() { _ = f.Close() }()
	data := buf[:0]
	if fi, err := f.Stat(); err == nil && int(fi.Size()) >= cap(data) {
		data = make([]byte, 0, int(fi.Size())+512) // room to see EOF without growing
	}
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
	}
}

// minFrame is the smallest encoded frame: a length byte, a payload of
// a one-byte seq, flags, session, pid and three empty strings, and the
// CRC. It caps a footer's record count at what the file can hold.
const minFrame = 1 + 7 + crcLen

// loadSegments lists and loads every segment file in dir, ordered for
// the merge by (first sequence, file id): a copy of the same sequences
// (a normalized segment beside the sources a crash left behind) sorts
// by its id, and a segment with no intact frame sorts last. The files
// are read and decoded concurrently, by min(GOMAXPROCS, files)
// workers, each reading every file it takes into one reused buffer:
// segments share nothing until the merge. tmps names the staging
// leftovers found.
func loadSegments(dir string, seek seekFunc) (segs []*segment, tmps []string, err error) {
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
		segs = append(segs, &segment{name: name, id: id})
	}
	errs := make([]error, len(segs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(segs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := int(next.Add(1)) - 1; i < len(segs); i = int(next.Add(1)) - 1 {
				errs[i] = segs[i].load(dir, seek, &buf)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
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

// merger reads loaded segments as one record stream. Every sequence
// is taken from the first intact copy in (first sequence, file id)
// order, and the stream ends only at a sequence that no intact copy
// holds: the longest contiguous, CRC-verified prefix. Damage in one
// copy costs nothing when a later copy holds the same sequences: a
// normalized segment beside the sources a crash kept it from removing,
// or the merged segments of a directory an older store compacted.
// Recovery and the cold scan both read a directory through walk, so
// they cannot disagree on what it holds — except that a seek, which
// trusts the footer, does not decode the frames it skips.
type merger struct {
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
	// seeked and skipped count the segments the walk reached whose
	// decode a seek started mid-stream or skipped whole.
	seeked, skipped int
}

// walk reads segs in order, handing emit each run of the merged
// stream — positions [from, to) of one segment's decoded entries — in
// sequence order; emit returning false ends the walk early.
func (m *merger) walk(segs []*segment, emit func(f *frames, from, to int) bool) {
	m.stop = len(segs)
	for i, s := range segs {
		f := &s.frames
		if s.count == 0 {
			if f.trunc != nil {
				m.damage(s, f.trunc)
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
		if s.seeked {
			m.next = max(m.next, s.seek)
			if s.seek > s.last {
				m.skipped++
				continue
			}
			m.seeked++
		}
		// The decoded entries hold f.first, f.first+1, …: those below
		// m.next repeat earlier copies, and a first entry past it is a
		// hole in this copy — damage a later copy may still repair.
		from, n, trunc := 0, len(f.ents), f.trunc
		switch {
		case n == 0 || m.next == 0:
		case f.first <= m.next:
			from = int(min(m.next-f.first, uint64(n)))
			m.overlap = m.overlap || from > 0
		default:
			from, trunc = n, &Truncation{Offset: s.start, Reason: m.gap(f.first)}
		}
		if from < n {
			m.next = f.first + uint64(n)
			if !emit(f, from, n) {
				return
			}
		}
		if trunc != nil {
			m.damage(s, trunc)
		}
	}
}

// gap renders the reason a stream cannot continue at sequence seq.
func (m *merger) gap(seq uint64) string {
	return seqGap(m.next-1, seq)
}

// damage accounts for a damaged segment.
func (m *merger) damage(s *segment, t *Truncation) {
	m.droppedBytes += s.size - t.Offset
	m.note(s.name, t.Offset, t.Reason)
}

// note records the first damage or gap.
func (m *merger) note(file string, offset int, reason string) {
	if m.reason == "" {
		m.file, m.offset, m.reason = file, offset, reason
	}
}
