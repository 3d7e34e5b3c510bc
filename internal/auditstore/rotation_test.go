package auditstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"overhaul/internal/auditstore"
)

func TestOpenRejectsBadOptions(t *testing.T) {
	if st, err := auditstore.Open(t.TempDir(), auditstore.Options{SegmentRecords: -1}); err == nil {
		st.Close() // the open should have failed; release it best-effort
		t.Error("Open with a negative segment size succeeded, want an error")
	}
}

// TestDefaultSegmentRotation drives the default Options the way a
// session sink does, in 32-record batches, through three rotations:
// a full active segment is sealed by the next commit, every sealed
// segment holds exactly DefaultSegmentRecords records, and a sealed
// file's bytes never change once sealed — the store only appends. The
// store then reopens clean with every record.
func TestDefaultSegmentRotation(t *testing.T) {
	const batch, rotations = 32, 3
	s := auditstore.DefaultSegmentRecords
	if s%batch != 0 {
		t.Fatalf("DefaultSegmentRecords %d is not a multiple of the %d-record batch", s, batch)
	}
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := make([]auditstore.Record, batch)
	sealedBytes := map[string][]byte{} // each sealed file as first seen
	n := 0
	for n < rotations*s+batch {
		for i := range recs {
			recs[i] = mkRecord(n + i)
		}
		if _, err := st.AppendBatch(recs); err != nil {
			t.Fatalf("append batch at %d: %v", n, err)
		}
		n += batch
		paths := st.SealedPaths()
		if want := (n - 1) / s; len(paths) != want {
			t.Fatalf("after %d records: %d sealed segments, want %d", n, len(paths), want)
		}
		for _, p := range paths {
			if _, ok := sealedBytes[p]; ok {
				continue
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("read sealed segment: %v", err)
			}
			if got, _, trunc := auditstore.DecodeBinarySegment(data); len(got) != s || trunc != nil {
				t.Fatalf("%s: %d records (truncation %v), want %d intact", filepath.Base(p), len(got), trunc, s)
			}
			sealedBytes[p] = data
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for p, want := range sealedBytes {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed after it was sealed (err %v)", filepath.Base(p), err)
		}
	}
	st, err = auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if rec := st.Recovery(); !rec.Clean || rec.Records != n {
		t.Fatalf("reopen recovery = %+v, want clean with %d records", rec, n)
	}
	if sealed, _ := st.SegmentCount(); sealed != rotations {
		t.Fatalf("reopen adopted %d sealed segments, want %d", sealed, rotations)
	}
}

// TestLoadReusesReadBuffer decodes two different segments through one
// worker's read buffer, in both orders: the second file overwrites the
// first one's bytes (or grows the buffer), so a decode that kept a
// slice of the buffer — a kind's strings, a footer — would read the
// second file's bytes back as the first's records.
func TestLoadReusesReadBuffer(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct {
		recs   int
		prefix string
	}{{40, "first segment: "}, {9, "second: "}} {
		// The first file is sealed (32 records and a footer), the
		// second is an unsealed 9.
		st, err := auditstore.Open(t.TempDir(), auditstore.Options{SegmentRecords: 32})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for j := 0; j < c.recs; j++ {
			r := mkRecord(j)
			r.Reason = c.prefix + r.Reason
			if _, err := st.Append(r); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		src := filepath.Join(st.Dir(), "seg-00000001.seg")
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		copyFile(t, src, filepath.Join(dir, fmt.Sprintf("seg-%08x.seg", i+1)))
	}
	for _, names := range [][]string{
		{"seg-00000001.seg", "seg-00000002.seg"}, // larger first: reused
		{"seg-00000002.seg", "seg-00000001.seg"}, // smaller first: grown
	} {
		got, err := auditstore.LoadSharingBuffer(dir, names...)
		if err != nil {
			t.Fatalf("load %v: %v", names, err)
		}
		for i, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			want, _, _ := auditstore.DecodeBinarySegment(data)
			exactRecords(t, name+" after "+fmt.Sprint(names), got[i], want)
		}
	}
}
