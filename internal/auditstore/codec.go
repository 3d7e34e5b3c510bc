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
	// The same range in Unix nanoseconds, for the decoder.
	codecMinNanos = codecMin * 1e9
	codecMaxNanos = codecMax * 1e9
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

// decodePayload parses the fixed fields of one v2 record payload into
// an index entry (its kind left zero) and returns the payload's tail —
// the length-prefixed op, verdict and reason — unparsed, for
// kindTable.intern to check and intern by its bytes. It never panics
// on arbitrary input. A time the encoder would refuse (outside
// [codecMin, codecMax)) fails the payload, so every decoded record
// re-encodes and no decoded time collides with noTime.
func decodePayload(p []byte) (seq uint64, e entry, degraded bool, tail []byte, ok bool) {
	seq, n := binary.Uvarint(p)
	if n <= 0 || len(p) == n {
		return 0, e, false, nil, false
	}
	flags := p[n]
	p = p[n+1:]
	if flags&^(flagDegraded|flagTime|flagStamp) != 0 {
		return 0, e, false, nil, false
	}
	e.time, e.stamp = noTime, noTime
	if flags&flagTime != 0 {
		if e.time, p, ok = decodeNanos(p); !ok {
			return 0, e, false, nil, false
		}
	}
	if flags&flagStamp != 0 {
		if e.stamp, p, ok = decodeNanos(p); !ok {
			return 0, e, false, nil, false
		}
	}
	if e.session, n = binary.Uvarint(p); n <= 0 {
		return 0, e, false, nil, false
	}
	p = p[n:]
	pid, n := binary.Varint(p)
	if n <= 0 || pid < math.MinInt32 || pid > math.MaxInt32 {
		return 0, e, false, nil, false
	}
	e.pid = int32(pid)
	return seq, e, flags&flagDegraded != 0, p[n:], true
}

// decodeNanos parses one varint record time and returns the rest.
func decodeNanos(p []byte) (int64, []byte, bool) {
	t, n := binary.Varint(p)
	if n <= 0 || t < codecMinNanos || t >= codecMaxNanos {
		return 0, nil, false
	}
	return t, p[n:], true
}

// kindTable interns kinds by their encoded bytes: a payload's degraded
// bit selects one of two maps, and its tail — the length-prefixed op,
// verdict and reason, as encoded — is the key. A record costs one map
// probe keyed by bytes it already holds, with no string decoded or
// allocated; only a kind's first sighting parses the tail, checks it,
// and keeps its strings, which are substrings of the key. A trail
// repeats a few hundred kinds, so that happens a few hundred times.
type kindTable struct {
	kinds []kind
	ids   [2]map[string]uint32 // by degraded bit: tail → position in kinds
}

// kind is one distinct {Op, Verdict, Reason, Degraded} tuple and the
// encoded tail it was interned by.
type kind struct {
	op, verdict, reason string
	degraded            bool
	tail                string
}

// intern returns the id of the kind encoded by degraded and tail,
// adding it on first sight; ok is false when the tail does not parse
// as exactly three length-prefixed strings.
func (t *kindTable) intern(degraded bool, tail []byte) (id uint32, ok bool) {
	if id, ok := t.ids[b2i(degraded)][string(tail)]; ok {
		return id, true
	}
	k, ok := parseKind(degraded, tail)
	if !ok {
		return 0, false
	}
	return t.push(k), true
}

// internKind is intern for a kind another table already parsed.
func (t *kindTable) internKind(k *kind) uint32 {
	if id, ok := t.ids[b2i(k.degraded)][k.tail]; ok {
		return id
	}
	return t.push(*k)
}

// push appends a kind the table does not hold.
func (t *kindTable) push(k kind) uint32 {
	m := &t.ids[b2i(k.degraded)]
	if *m == nil {
		*m = make(map[string]uint32)
	}
	id := uint32(len(t.kinds))
	t.kinds = append(t.kinds, k)
	(*m)[k.tail] = id
	return id
}

// parseKind checks an encoded tail and builds its kind, the strings
// sliced from one copy of the tail.
func parseKind(degraded bool, tail []byte) (kind, bool) {
	k := kind{degraded: degraded, tail: string(tail)}
	var strs [3]string // op, verdict, reason
	at := 0
	for i := range strs {
		l, n := binary.Uvarint(tail[at:])
		if n <= 0 || l > uint64(len(tail)-at-n) {
			return kind{}, false
		}
		strs[i] = k.tail[at+n : at+n+int(l)]
		at += n + int(l)
	}
	if at != len(tail) {
		return kind{}, false
	}
	k.op, k.verdict, k.reason = strs[0], strs[1], strs[2]
	return k, true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
// exhausted, the footer marker is reached, a frame fails a check, or a
// frame's sequence number does not follow its predecessor's. It
// returns the decoded records, the bytes consumed by them (header
// included), and the truncation point when the input did not decode
// cleanly. It reads the segment through the decoder recovery and the
// cold scan use, and never panics on arbitrary input
// (FuzzBinarySegmentDecode pins this).
func DecodeBinarySegment(data []byte) ([]Record, int, *Truncation) {
	if !hasSegMagic(data) {
		return nil, 0, &Truncation{Offset: 0, Reason: "bad segment header"}
	}
	var f frames
	f.decode(data, len(segMagicV2), parseFooter(data), false)
	var recs []Record
	if len(f.ents) > 0 {
		recs = make([]Record, len(f.ents))
		v := f.view()
		for i := range recs {
			v.fill(i, &recs[i])
		}
	}
	return recs, f.end, f.trunc
}

// hasSegMagic reports whether data starts with the v2 segment header.
func hasSegMagic(data []byte) bool {
	return len(data) >= len(segMagicV2) && string(data[:len(segMagicV2)]) == segMagicV2
}

// frames is a segment's frame stream decoded into index entries: the
// records of consecutive sequence numbers from first, each entry's
// kind an id in the segment's own kind table. Decoding one segment
// touches nothing shared, so segments decode concurrently; the merge
// then moves the entries it keeps into the store's index, re-interning
// the few kinds.
type frames struct {
	first uint64
	ents  []entry
	kinds kindTable
	// blocks is the block index rebuilt from the frames, one entry per
	// indexEvery records, when decode was asked for it.
	blocks []blockEntry
	// maxT is the newest record time, math.MinInt64 when none.
	maxT int64
	// end is the byte offset where the clean decode stopped; trunc says
	// why it stopped early, nil when the input decoded cleanly.
	end   int
	trunc *Truncation
}

// decode walks the frame stream of a v2 segment from byte offset off
// (the caller has checked the header). footer is the segment's intact
// block index, or nil: the footer marker ends the stream only at the
// offset it names. Every frame's length, CRC and payload are checked,
// and the stream ends at the first frame that fails a check or whose
// sequence number does not follow its predecessor's — the segment's
// longest intact, contiguous prefix. blocks asks for the block index
// to be rebuilt as well.
func (f *frames) decode(data []byte, off int, footer []blockEntry, blocks bool) {
	f.maxT = math.MinInt64
	f.end, f.trunc = f.stream(data, off, footer, blocks)
}

// stream is decode's loop; it returns the clean end and the truncation.
func (f *frames) stream(data []byte, off int, footer []blockEntry, blocks bool) (int, *Truncation) {
	for off < len(data) {
		if data[off] == idxMarker {
			// Footer marker: the record stream ends here, and only at the
			// offset an intact footer's sentinel names. A damaged footer is
			// reported as truncation so recovery normalizes the segment,
			// but the records before it are all good. A zero before an
			// intact footer is a rotted frame length and fails the length
			// check below.
			if footer == nil {
				return off, &Truncation{Offset: off, Reason: "torn segment footer"}
			}
			if footer[len(footer)-1].off == uint64(off) {
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
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[n+int(plen):]) {
			return off, &Truncation{Offset: off, Reason: "crc mismatch"}
		}
		seq, e, degraded, tail, ok := decodePayload(payload)
		if ok {
			e.kind, ok = f.kinds.intern(degraded, tail)
		}
		if !ok {
			return off, &Truncation{Offset: off, Reason: "malformed record payload"}
		}
		if len(f.ents) == 0 {
			f.first = seq
		} else if want := f.first + uint64(len(f.ents)); seq != want {
			return off, &Truncation{Offset: off, Reason: seqGap(want-1, seq)}
		}
		if blocks && len(f.ents)%indexEvery == 0 {
			f.blocks = append(f.blocks, blockEntry{seq: seq, off: uint64(off), maxBefore: f.maxT})
		}
		// A zero time is noTime, the maximum's floor, so it never raises it.
		f.maxT = max(f.maxT, e.time)
		f.ents = append(f.ents, e)
		off += n + int(plen) + crcLen
	}
	return off, nil
}

// seqGap renders the reason a stream holding sequences through have
// cannot take next.
func seqGap(have, next uint64) string {
	return fmt.Sprintf("sequence gap: have %d, next record is %d", have, next)
}

// view presents the decoded records for reading, in index-sized
// chunks over the one entry slice.
func (f *frames) view() view {
	v := view{base: f.first, n: len(f.ents), kinds: f.kinds.kinds}
	for i := 0; i < len(f.ents); i += chunkLen {
		v.chunks = append(v.chunks, f.ents[i:min(i+chunkLen, len(f.ents))])
	}
	return v
}
