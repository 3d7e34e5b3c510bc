package auditstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// Binary segment format v2, the store's one on-disk format. Files are
// named seg-<8 hex id>.seg (see segment.go) and hold one framed record
// stream:
//
//	header:  8 bytes magic "OVHSEG2\n"
//	frame:   uvarint payload length | payload | 4-byte LE CRC-32 (IEEE)
//	footer:  0x00 marker | index body | 4-byte LE CRC-32 of body
//	         | 4-byte LE body length | 4 bytes magic "IDX2"
//
// A frame's payload length is never zero, so the single 0x00 marker
// byte unambiguously ends the record stream; the fixed-size trailer
// lets a reader locate the index from the end of the file without
// decoding records. The footer is written only when a segment is
// sealed — an active segment is a pure frame stream whose tail may be
// torn.
//
// The index body is a sparse block index: uvarint entry count, then
// per entry (uvarint first sequence, uvarint byte offset of the
// block's first frame, zigzag varint max record-time nanos *before*
// the block). Because the third field is a prefix maximum it is
// non-decreasing across entries even when record times are not, so a
// Since seek can binary-search for the last block whose entire prefix
// predates the bound and start decoding there — skipped records can
// never match. The final entry is a sentinel at the footer offset
// whose prefix maximum covers the whole segment.
//
// The record payload is field-wise varint/length-prefixed:
//
//	uvarint seq | flags byte | varint time nanos (if flag timePresent)
//	| varint stamp nanos (if flag stampPresent) | uvarint session
//	| varint pid | 3 × (uvarint length + bytes) op, verdict, reason
const (
	segMagicV2    = "OVHSEG2\n"
	idxMagicV2    = "IDX2"
	idxMarker     = 0x00
	idxTrailerLen = 4 + 4 + len(idxMagicV2) // body CRC + body length + magic
	// crcLen is the per-frame payload checksum size.
	crcLen = 4
	// indexEvery is the block-index granularity: one entry per this
	// many records.
	indexEvery = 32
	// MaxPayload bounds one record's encoded payload. A length field
	// above it is treated as corruption, not an allocation request.
	MaxPayload = 1 << 20
)

// Truncation describes where and why a segment decode stopped before
// the end of its input: the exact truncation point recovery reports.
type Truncation struct {
	// Offset is the byte offset of the first undecodable frame.
	Offset int
	// Reason says what failed there.
	Reason string
}

// Record payload flag bits.
const (
	flagDegraded = 1 << iota
	flagTime
	flagStamp
)

// blockEntry is one sparse-index entry: the block's first record and
// the maximum record time seen before it (MinInt64 for the first
// block, so every Since bound finds a starting block).
type blockEntry struct {
	seq       uint64
	off       uint64
	maxBefore int64
}

// timeNanos converts a record time for the binary codec. The zero time
// is carried as an absent field; instants outside [codecMin, codecMax)
// — the whole UTC years inside the int64-nanoseconds range — do not
// round-trip and are rejected, like payloads above MaxPayload. The
// check compares instants, so it costs no calendar or zone arithmetic.
func timeNanos(t time.Time) (int64, bool, error) {
	if t.IsZero() {
		return 0, false, nil
	}
	sec := t.Unix()
	if sec < codecMin || sec >= codecMax {
		return 0, false, fmt.Errorf("auditstore: time %v outside binary codec range", t)
	}
	return sec*1e9 + int64(t.Nanosecond()), true, nil
}

// The binary codec's time range in Unix seconds: UTC years 1678
// through 2261.
var (
	codecMin = time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	codecMax = time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
)

// FrameEncoder frames records for v2 segments through reusable buffers:
// after warm-up, AppendRecord performs no allocation beyond growth of
// the caller's destination slice.
type FrameEncoder struct {
	payload []byte
}

// AppendRecord appends one framed v2 record to dst and returns the
// extended slice.
func (e *FrameEncoder) AppendRecord(dst []byte, r *Record) ([]byte, error) {
	p, err := appendRecordPayload(e.payload[:0], r)
	if err != nil {
		return dst, err
	}
	e.payload = p
	if len(p) > MaxPayload {
		return dst, fmt.Errorf("auditstore: encode seq %d: payload %d bytes exceeds %d", r.Seq, len(p), MaxPayload)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	dst = append(dst, p...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(p)), nil
}

// appendRecordPayload renders the record's fields into dst.
func appendRecordPayload(dst []byte, r *Record) ([]byte, error) {
	tn, hasTime, err := timeNanos(r.Time)
	if err != nil {
		return dst, fmt.Errorf("auditstore: encode seq %d: %w", r.Seq, err)
	}
	sn, hasStamp, err := timeNanos(r.Stamp)
	if err != nil {
		return dst, fmt.Errorf("auditstore: encode seq %d: %w", r.Seq, err)
	}
	if int64(r.PID) < math.MinInt32 || int64(r.PID) > math.MaxInt32 {
		// The decoder rejects such a pid. validateRecord refuses it
		// before a sequence is assigned; this is the codec's backstop.
		return dst, fmt.Errorf("auditstore: encode seq %d: pid %d outside int32", r.Seq, r.PID)
	}
	dst = binary.AppendUvarint(dst, r.Seq)
	var flags byte
	if r.Degraded {
		flags |= flagDegraded
	}
	if hasTime {
		flags |= flagTime
	}
	if hasStamp {
		flags |= flagStamp
	}
	dst = append(dst, flags)
	if hasTime {
		dst = binary.AppendVarint(dst, tn)
	}
	if hasStamp {
		dst = binary.AppendVarint(dst, sn)
	}
	dst = binary.AppendUvarint(dst, r.Session)
	dst = binary.AppendVarint(dst, int64(r.PID))
	dst = appendString(dst, r.Op)
	dst = appendString(dst, r.Verdict)
	return appendString(dst, r.Reason), nil
}

// appendString appends a uvarint length prefix and the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeRecordPayload parses one v2 record payload into r, taking its
// strings from strs (nil allocates every one). It never panics on
// arbitrary input and rejects trailing garbage, so a frame whose CRC
// matches still cannot smuggle undecodable bytes.
func decodeRecordPayload(p []byte, r *Record, strs strtab) error {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return fmt.Errorf("auditstore: payload: bad seq varint")
	}
	p = p[n:]
	if len(p) < 1 {
		return fmt.Errorf("auditstore: payload: missing flags")
	}
	flags := p[0]
	p = p[1:]
	if flags&^(flagDegraded|flagTime|flagStamp) != 0 {
		return fmt.Errorf("auditstore: payload: unknown flags %#x", flags)
	}
	*r = Record{Seq: seq, Degraded: flags&flagDegraded != 0}
	if flags&flagTime != 0 {
		tn, n := binary.Varint(p)
		if n <= 0 {
			return fmt.Errorf("auditstore: payload: bad time varint")
		}
		p = p[n:]
		r.Time = time.Unix(0, tn).UTC()
	}
	if flags&flagStamp != 0 {
		sn, n := binary.Varint(p)
		if n <= 0 {
			return fmt.Errorf("auditstore: payload: bad stamp varint")
		}
		p = p[n:]
		r.Stamp = time.Unix(0, sn).UTC()
	}
	session, n := binary.Uvarint(p)
	if n <= 0 {
		return fmt.Errorf("auditstore: payload: bad session varint")
	}
	p = p[n:]
	r.Session = session
	pid, n := binary.Varint(p)
	if n <= 0 || pid < math.MinInt32 || pid > math.MaxInt32 {
		return fmt.Errorf("auditstore: payload: bad pid varint")
	}
	p = p[n:]
	r.PID = int(pid)
	var err error
	if r.Op, p, err = decodeString(p, strs); err != nil {
		return fmt.Errorf("auditstore: payload: op: %w", err)
	}
	if r.Verdict, p, err = decodeString(p, strs); err != nil {
		return fmt.Errorf("auditstore: payload: verdict: %w", err)
	}
	if r.Reason, p, err = decodeString(p, strs); err != nil {
		return fmt.Errorf("auditstore: payload: reason: %w", err)
	}
	if len(p) != 0 {
		return fmt.Errorf("auditstore: payload: %d trailing bytes", len(p))
	}
	return nil
}

// decodeString parses a length-prefixed string and returns the rest.
func decodeString(p []byte, strs strtab) (string, []byte, error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || l > uint64(len(p)-n) {
		return "", nil, fmt.Errorf("bad string length")
	}
	return strs.intern(p[n : n+int(l)]), p[n+int(l):], nil
}

// strtab interns decoded strings. A trail repeats a few hundred
// distinct op, verdict and reason strings, so looking each up by its
// frame bytes (a map index by string(b) does not allocate) costs one
// string per distinct value instead of one per record. Past strtabCap
// entries a new string is allocated but not kept, which bounds the
// table on a trail of unique reasons. A nil strtab interns nothing.
type strtab map[string]string

const strtabCap = 4096

func (t strtab) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if t != nil && len(t) < strtabCap {
		t[s] = s
	}
	return s
}

// footerSize bounds the encoded size of a footer of n block entries.
func footerSize(n int) int {
	return 1 + binary.MaxVarintLen64*(1+3*n) + idxTrailerLen
}

// appendFooter appends the sealed-segment footer (marker, index body,
// trailer) to dst.
func appendFooter(dst []byte, entries []blockEntry) []byte {
	dst = append(dst, idxMarker)
	bodyStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, e.seq)
		dst = binary.AppendUvarint(dst, e.off)
		dst = binary.AppendVarint(dst, e.maxBefore)
	}
	body := dst[bodyStart:]
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, idxMagicV2...)
}

// parseFooter reads the block index from the end of a v2 segment.
// It returns nil when the file carries no intact footer — an active or
// torn segment — in which case callers fall back to a sequential
// decode. An intact footer always holds at least one block entry plus
// the sentinel, the sentinel lies past the first block, and it names
// the footer marker's own offset: a footer that does not is damage,
// since the writer never seals an empty segment.
func parseFooter(data []byte) []blockEntry {
	if len(data) < idxTrailerLen+1 || string(data[len(data)-len(idxMagicV2):]) != idxMagicV2 {
		return nil
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	end := len(data) - idxTrailerLen
	if bodyLen <= 0 || bodyLen > end-1 {
		return nil
	}
	body := data[end-bodyLen : end]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-12:]) {
		return nil
	}
	if data[end-bodyLen-1] != idxMarker {
		return nil
	}
	count, n := binary.Uvarint(body)
	if n <= 0 || count > uint64(len(body)) {
		return nil
	}
	body = body[n:]
	entries := make([]blockEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e blockEntry
		var n int
		if e.seq, n = binary.Uvarint(body); n <= 0 {
			return nil
		}
		body = body[n:]
		if e.off, n = binary.Uvarint(body); n <= 0 {
			return nil
		}
		body = body[n:]
		if e.maxBefore, n = binary.Varint(body); n <= 0 {
			return nil
		}
		body = body[n:]
		entries = append(entries, e)
	}
	if len(body) != 0 || len(entries) < 2 {
		return nil
	}
	if sent := entries[len(entries)-1]; sent.seq <= entries[0].seq || sent.off != uint64(end-bodyLen-1) {
		return nil
	}
	return entries
}

// seekBlock returns the block at which a Since scan over a sealed v2
// segment may start: the last block whose prefix maximum time is
// strictly before since. Every skipped record is older than the bound
// and could not have matched. When the whole segment predates the
// bound the result is the sentinel entry, one past the last record.
func seekBlock(entries []blockEntry, since time.Time) (blockEntry, bool) {
	nanos, ok, err := timeNanos(since)
	if !ok || err != nil {
		return blockEntry{}, false
	}
	lo, hi := 0, len(entries) // invariant: entries[:lo] have maxBefore < nanos
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].maxBefore < nanos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return blockEntry{}, false
	}
	return entries[lo-1], true
}

// DecodeBinarySegment decodes a v2 segment until the input is
// exhausted, the footer marker is reached, or a frame fails a check.
// It returns the decoded records, the bytes consumed by them (header
// included), and the truncation point when the input did not decode
// cleanly. It never panics on arbitrary input
// (FuzzBinarySegmentDecode pins this).
func DecodeBinarySegment(data []byte) ([]Record, int, *Truncation) {
	if !hasSegMagic(data) {
		return nil, 0, &Truncation{Offset: 0, Reason: "bad segment header"}
	}
	var recs []Record
	end, trunc := streamFrames(data, len(segMagicV2), nil, func(r *Record, _ int) bool {
		recs = append(recs, *r)
		return true
	})
	return recs, end, trunc
}

// hasSegMagic reports whether data starts with the v2 segment header.
func hasSegMagic(data []byte) bool {
	return len(data) >= len(segMagicV2) && string(data[:len(segMagicV2)]) == segMagicV2
}

// streamFrames walks the frame stream of a v2 segment starting at byte
// offset off (the caller has already checked the header), handing each
// decoded record, its strings interned through strs, to emit by
// pointer into one reusable Record — the zero-copy core under the
// batch decoder and the segment merge. It returns the bytes cleanly
// consumed and the truncation point, if any; emit returning false
// stops the walk early with no truncation.
func streamFrames(data []byte, off int, strs strtab, emit func(r *Record, off int) bool) (int, *Truncation) {
	var r Record
	for off < len(data) {
		if data[off] == idxMarker {
			// Footer marker: the record stream ends here, and only at
			// the offset an intact footer's sentinel names. A damaged
			// footer is reported as truncation so recovery normalizes
			// the segment, but the records before it are all good. A
			// zero before an intact footer is a rotted frame length and
			// fails the length check below.
			idx := parseFooter(data)
			if idx == nil {
				return off, &Truncation{Offset: off, Reason: "torn segment footer"}
			}
			if idx[len(idx)-1].off == uint64(off) {
				return len(data), nil
			}
		}
		rest := data[off:]
		plen, n := binary.Uvarint(rest)
		if n <= 0 {
			return off, &Truncation{Offset: off, Reason: "malformed frame length"}
		}
		if plen == 0 || plen > MaxPayload {
			return off, &Truncation{Offset: off, Reason: fmt.Sprintf("implausible payload length %d", plen)}
		}
		if uint64(len(rest)-n) < plen+crcLen {
			return off, &Truncation{Offset: off, Reason: "torn payload"}
		}
		payload := rest[n : n+int(plen)]
		crc := binary.LittleEndian.Uint32(rest[n+int(plen):])
		if crc32.ChecksumIEEE(payload) != crc {
			return off, &Truncation{Offset: off, Reason: "crc mismatch"}
		}
		if err := decodeRecordPayload(payload, &r, strs); err != nil {
			return off, &Truncation{Offset: off, Reason: "malformed record payload"}
		}
		if !emit(&r, off) {
			return off, nil
		}
		off += n + int(plen) + crcLen
	}
	return off, nil
}
