package auditstore_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"overhaul/internal/auditstore"
)

// segMagic is the 8-byte segment header.
const segMagic = "OVHSEG2\n"

// encodeFrame frames one record exactly as a segment holds it.
func encodeFrame(r auditstore.Record) ([]byte, error) {
	var e auditstore.FrameEncoder
	return e.AppendRecord(nil, &r)
}

// FuzzSegmentDecode feeds arbitrary bytes to the store's one segment
// reader as the oldest segment file of a directory whose two later
// segments hold records 1..8 intact. Whatever the bytes, the cold scan
// of the raw directory and recovery (Open) must read it as the same
// records, keep every sequence the intact segments hold, and leave the
// directory normalized so the next open is clean and unchanged.
func FuzzSegmentDecode(f *testing.F) {
	sealed, active := storeSegments(f)
	f.Add(sealed) // a duplicate copy of records 1..4
	flipped := append([]byte(nil), sealed...)
	flipped[40] ^= 0x40
	f.Add(flipped) // bit rot in the first frame
	badFooter := append([]byte(nil), sealed...)
	badFooter[len(badFooter)-6] ^= 0x01
	f.Add(badFooter)              // damaged footer, intact frames
	f.Add(sealed[:len(sealed)/2]) // torn mid-stream
	f.Add([]byte(segMagic))       // empty segment
	f.Add([]byte("not a segment at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{
			"seg-00000001.seg": data, "seg-00000002.seg": sealed, "seg-00000003.seg": active,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
				t.Fatalf("write %s: %v", name, err)
			}
		}
		cold, _ := coldRecords(t, dir, auditstore.Query{})
		st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		warm, err := auditstore.ScanAll(st, auditstore.Query{})
		if err != nil {
			t.Fatalf("warm scan: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		sameRecords(t, "cold vs warm", cold, warm)
		for i := 0; i < 8; i++ {
			want := mkRecord(i)
			want.Seq = uint64(i + 1)
			j := slices.IndexFunc(warm, func(r auditstore.Record) bool { return r.Seq == want.Seq })
			if j < 0 {
				t.Fatalf("intact seq %d lost (%d records recovered)", want.Seq, len(warm))
			}
		}

		again, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4})
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer again.Close()
		if rec := again.Recovery(); !rec.Clean {
			t.Fatalf("second open not clean: %+v", rec)
		}
		reread, err := auditstore.ScanAll(again, auditstore.Query{})
		if err != nil {
			t.Fatalf("second scan: %v", err)
		}
		sameRecords(t, "after normalize", reread, warm)
	})
}

// storeSegments writes records 1..8 through a store with four-record
// segments and returns the sealed first segment and the full, unsealed
// active one.
func storeSegments(f *testing.F) (sealed, active []byte) {
	f.Helper()
	dir := f.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4})
	if err != nil {
		f.Fatalf("open: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			f.Fatalf("append: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatalf("close: %v", err)
	}
	if sealed, err = os.ReadFile(filepath.Join(dir, "seg-00000001.seg")); err != nil {
		f.Fatalf("read sealed segment: %v", err)
	}
	if active, err = os.ReadFile(filepath.Join(dir, "seg-00000002.seg")); err != nil {
		f.Fatalf("read active segment: %v", err)
	}
	return sealed, active
}

// FuzzBinarySegmentDecode pins the segment codec's safety contract:
// DecodeBinarySegment never panics on arbitrary bytes, never reads
// past its input, reports truncation exactly at the consumed offset,
// and whatever it decodes round-trips through the encoder.
func FuzzBinarySegmentDecode(f *testing.F) {
	// Seeds: a valid frame stream, torn tails, flipped bytes, junk, and
	// a real sealed segment with footer (written by the store itself).
	valid := []byte(segMagic)
	for i := 0; i < 5; i++ {
		r := mkRecord(i)
		r.Seq = uint64(i + 1)
		frame, err := encodeFrame(r)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		valid = append(valid, frame...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn CRC
	f.Add(valid[:9])            // torn first frame
	f.Add(valid[:4])            // torn magic
	f.Add([]byte{})
	f.Add([]byte("not a segment at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(valid)/2] ^= 0x40
	f.Add(flipped) // bit rot mid-stream
	sealed, _ := storeSegments(f)
	f.Add(sealed)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, trunc := auditstore.DecodeBinarySegment(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if trunc == nil && consumed != len(data) {
			t.Fatalf("clean decode consumed %d of %d bytes", consumed, len(data))
		}
		if trunc != nil {
			if trunc.Offset != consumed {
				t.Fatalf("truncation offset %d != consumed %d", trunc.Offset, consumed)
			}
			if trunc.Reason == "" {
				t.Fatal("truncation without a reason")
			}
		}

		// v2 round trip: everything decoded re-frames to an identical
		// stream of records.
		reenc := []byte(segMagic)
		for _, r := range recs {
			frame, err := encodeFrame(r)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			reenc = append(reenc, frame...)
		}
		again, consumed2, trunc2 := auditstore.DecodeBinarySegment(reenc)
		if trunc2 != nil || consumed2 != len(reenc) || len(again) != len(recs) {
			t.Fatalf("v2 re-decode: %d records %d/%d bytes trunc=%v",
				len(again), consumed2, len(reenc), trunc2)
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("v2 round trip diverged at %d:\n got %+v\nwant %+v", i, again[i], recs[i])
			}
		}

	})
}

// FuzzRecordRoundTrip pins the encode→decode identity for every valid
// record: whatever fields a record carries, one framed record comes
// back as exactly that record. Only a pid outside int32 or an
// oversized payload may be refused, and only at encode time.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(0), uint64(0), 100, "open_device", "grant", "interaction 1s ago", int64(0), false)
	f.Add(uint64(1<<40), int64(1456822800), uint64(7), -5, "", "deny", "reason with \"quotes\" and \n newline", int64(-12345), true)
	f.Add(uint64(0), int64(1), uint64(1), 0, "читать", "?", "", int64(1), false)

	f.Fuzz(func(t *testing.T, seq uint64, tsec int64, session uint64, pid int, op, verdict, reason string, stampSec int64, degraded bool) {
		r := auditstore.Record{
			Seq:      seq,
			Time:     time.Unix(tsec%(1<<33), 0).UTC(),
			Session:  session,
			PID:      pid,
			Op:       op,
			Verdict:  verdict,
			Reason:   reason,
			Stamp:    time.Unix(stampSec%(1<<33), 0).UTC(),
			Degraded: degraded,
		}
		frame, err := encodeFrame(r)
		if err != nil {
			if pid == int(int32(pid)) && len(op)+len(verdict)+len(reason) < auditstore.MaxPayload/2 {
				t.Fatalf("encode rejected a plausible record: %v", err)
			}
			return
		}
		seg := append([]byte(segMagic), frame...)
		recs, consumed, trunc := auditstore.DecodeBinarySegment(seg)
		if trunc != nil || consumed != len(seg) || len(recs) != 1 {
			t.Fatalf("decode of one frame: %d records, %d/%d bytes, trunc=%v", len(recs), consumed, len(seg), trunc)
		}
		if !sameRecord(recs[0], r) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", recs[0], r)
		}
	})
}
