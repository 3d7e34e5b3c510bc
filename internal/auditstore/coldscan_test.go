package auditstore_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
)

// dirNames lists a directory's file names, for checking that a refused
// open left it untouched.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// coldRecords runs ScanSegments and collects what it yields.
func coldRecords(t *testing.T, dir string, q auditstore.Query) ([]auditstore.Record, auditstore.ColdStats) {
	t.Helper()
	var out []auditstore.Record
	stats, err := auditstore.ScanSegments(dir, q, func(r auditstore.Record) bool {
		out = append(out, r)
		return true
	})
	if err != nil {
		t.Fatalf("cold scan: %v", err)
	}
	return out, stats
}

// sameRecords fails the test unless two record lists agree field by
// field.
func sameRecords(t *testing.T, what string, got, want []auditstore.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s: record %d diverged:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

// TestMixedFormatRecovery pins the v1 refusal: a directory that still
// holds a legacy seg-*.jsonl segment, beside v2 segments or alone, makes
// Open, ScanSegments and SegmentsNewest fail with an error naming the
// file, and leaves the directory untouched. The store never reads such
// a directory as an empty or silently gapped trail.
func TestMixedFormatRecovery(t *testing.T) {
	for _, v2 := range []int{0, 10} {
		dir := t.TempDir()
		if v2 > 0 {
			st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			fillStore(t, st, v2)
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		}
		v1 := filepath.Join(dir, "seg-00000009.jsonl")
		if err := os.WriteFile(v1, []byte("0000000b00000000{\"seq\":11}\n"), 0o600); err != nil {
			t.Fatalf("write v1 segment: %v", err)
		}
		before := dirNames(t, dir)

		if st, err := auditstore.Open(dir, auditstore.Options{}); err == nil || !strings.Contains(err.Error(), v1) {
			if st != nil {
				st.Close() // the open should not have succeeded
			}
			t.Fatalf("%d v2 records: Open = %v, want an error naming %s", v2, err, v1)
		}
		if _, err := auditstore.ScanSegments(dir, auditstore.Query{}, func(auditstore.Record) bool { return true }); err == nil || !strings.Contains(err.Error(), v1) {
			t.Fatalf("%d v2 records: ScanSegments = %v, want an error naming %s", v2, err, v1)
		}
		if _, err := auditstore.SegmentsNewest(dir); err == nil || !strings.Contains(err.Error(), v1) {
			t.Fatalf("%d v2 records: SegmentsNewest = %v, want an error naming %s", v2, err, v1)
		}
		if after := dirNames(t, dir); !slices.Equal(before, after) {
			t.Fatalf("%d v2 records: refused open changed the directory: %v -> %v", v2, before, after)
		}
	}
}

// filledDir writes records 0..n-1 into a fresh store of segRecs-record
// segments, closes it, and returns its directory.
func filledDir(t *testing.T, segRecs, n int) string {
	t.Helper()
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: segRecs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, n)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return dir
}

// TestColdWarmAgreeOnBitRot is the regression test for the two reads
// of a directory disagreeing. Five 8-record segments lie beside a
// 32-record copy of the first four's sequences under a higher id (what
// a crash between normalization's rename and its removals leaves, or
// an older store's merge), then one byte of the oldest segment rots.
// Whether a bit flips in the first frame or mid-segment, or the second
// frame's length byte rots to the footer marker's value, the intact
// copy holds every sequence: the cold scan of the raw directory and
// the reopened store must both return all 40 records, identically,
// and report the damage.
func TestColdWarmAgreeOnBitRot(t *testing.T) {
	flip := func(at int) func([]byte) {
		return func(data []byte) { data[at] ^= 0x40 }
	}
	zeroSecondFrameLen := func(data []byte) {
		plen, n := binary.Uvarint(data[8:]) // first frame, after the magic
		data[8+n+int(plen)+4] = 0
	}
	for _, tc := range []struct {
		name string
		rot  func([]byte)
	}{
		{"offset40", flip(40)},
		{"offset300", flip(300)},
		{"zeroed-frame-length", zeroSecondFrameLen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filledDir(t, 8, 40)
			copies := filledDir(t, 32, 40)
			copyFile(t, filepath.Join(copies, "seg-00000001.seg"), filepath.Join(dir, "seg-00000006.seg"))
			opts := auditstore.Options{SegmentRecords: 8}
			oldest := filepath.Join(dir, "seg-00000001.seg")
			data, err := os.ReadFile(oldest)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			tc.rot(data)
			if err := os.WriteFile(oldest, data, 0o600); err != nil {
				t.Fatalf("write: %v", err)
			}

			cold, stats := coldRecords(t, dir, auditstore.Query{})
			if !stats.Truncated || stats.TruncatedFile != "seg-00000001.seg" || stats.Reason == "" {
				t.Fatalf("cold scan does not report the rot: %+v", stats)
			}
			re, err := auditstore.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			rec := re.Recovery()
			if rec.Clean || rec.TruncatedFile != "seg-00000001.seg" || rec.Reason != stats.Reason {
				t.Fatalf("recovery = %+v, want the rot in seg-00000001.seg reported as %q", rec, stats.Reason)
			}
			checkPrefix(t, re, 40)
			warm, err := auditstore.ScanAll(re, auditstore.Query{})
			if err != nil {
				t.Fatalf("warm scan: %v", err)
			}
			sameRecords(t, "cold vs warm", cold, warm)

			// Recovery normalized the rot away: the cold path now reads
			// the same trail clean.
			again, stats := coldRecords(t, dir, auditstore.Query{})
			if stats.Truncated {
				t.Fatalf("cold scan after normalize still truncated: %+v", stats)
			}
			sameRecords(t, "cold after normalize", again, warm)
		})
	}
}

// coldQueries is the grid both the cold scanner and the iterator are
// checked against — every planner shape: full scan, single posting,
// intersection, time bounds, residual filters, limits.
func coldQueries() []auditstore.Query {
	mid := testBase.Add(700 * time.Millisecond)
	late := testBase.Add(1500 * time.Millisecond)
	return []auditstore.Query{
		{},
		{Verdict: "deny"},
		{Verdict: "grant"},
		{PID: 101},
		{PID: 103, Verdict: "deny"},
		{PID: 9999},
		{Since: mid},
		{Since: mid, Verdict: "deny"},
		{Until: mid},
		{Since: mid, Until: late, PID: 102},
		{Reason: "recent"},
		{Verdict: "deny", Reason: "recent"},
		{Session: 2},
		{Session: 3, Verdict: "grant"},
		{Limit: 7},
		{Verdict: "deny", Limit: 3},
		{Since: mid, Limit: 5},
	}
}

// TestColdScanMatchesStore pins ScanSegments against the warm path:
// for a directory with sealed segments (one of them sealed after a
// reopen adopted it as the active segment) and a partial active one,
// every query in the grid returns the same records in both paths.
func TestColdScanMatchesStore(t *testing.T) {
	dir := filledDir(t, 8, 30)
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i := 30; i < 45; i++ { // more sealed segments plus a partial active one
		if _, err := st.Append(mkRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	for qi, q := range coldQueries() {
		warm, err := auditstore.ScanAll(st, q)
		if err != nil {
			t.Fatalf("query %d warm scan: %v", qi, err)
		}
		cold, stats := coldRecords(t, dir, q)
		if stats.Truncated {
			t.Fatalf("query %d cold scan reports truncation on a healthy dir: %+v", qi, stats)
		}
		sameRecords(t, "query "+itoa(qi), cold, warm)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestColdScanSkipsSegments checks the footer fast path: a late -since
// bound must skip whole sealed segments without decoding them.
func TestColdScanSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 80) // 10 sealed v2 segments
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	q := auditstore.Query{Since: testBase.Add(3 * time.Second)} // records 60+
	var got []auditstore.Record
	stats, err := auditstore.ScanSegments(dir, q, func(r auditstore.Record) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatalf("cold scan: %v", err)
	}
	if stats.SkippedSegments == 0 {
		t.Fatalf("no segments skipped for a late since bound: %+v", stats)
	}
	if len(got) != 20 {
		t.Fatalf("got %d records, want 20 (stats %+v)", len(got), stats)
	}
	for i, r := range got {
		if want := uint64(61 + i); r.Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, want)
		}
	}
}

// TestColdScanReportsTruncation checks a torn tail surfaces in the
// cold stats with its file and reason, while the consistent prefix
// still streams.
func TestColdScanReportsTruncation(t *testing.T) {
	dir := t.TempDir()
	inj, err := faultinject.New(3, faultinject.Rule{
		Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 12, Count: 1,
	})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	st, err := auditstore.Open(dir, auditstore.Options{
		SegmentRecords: 64, Hook: inj.Hook(),
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	acked := 0
	for i := 0; i < 30; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			break
		}
		acked++
	}
	if acked == 0 || acked == 30 {
		t.Fatalf("torn fault never fired usefully (acked %d)", acked)
	}
	_ = st.Close() // the store is failed; Close only releases it

	var got []auditstore.Record
	stats, err := auditstore.ScanSegments(dir, auditstore.Query{}, func(r auditstore.Record) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatalf("cold scan: %v", err)
	}
	if !stats.Truncated || stats.TruncatedFile == "" || stats.Reason == "" {
		t.Fatalf("torn tail not reported: %+v", stats)
	}
	if len(got) != acked {
		t.Fatalf("cold scan streamed %d records, want the %d acked", len(got), acked)
	}
}

// TestSegmentsNewest pins the relative -since anchor: the newest
// record instant across all segments, straight from footers where
// available.
func TestSegmentsNewest(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 30) // sealed segments plus a partial active one
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	newest, err := auditstore.SegmentsNewest(dir)
	if err != nil {
		t.Fatalf("newest: %v", err)
	}
	want := mkRecord(29).Time
	if !newest.Equal(want) {
		t.Fatalf("newest = %v, want %v", newest, want)
	}
}
