package auditstore_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
	"overhaul/internal/monitor"
)

// testBase anchors every test record's timestamps (no wall clock in
// tests: runs are reproducible by construction).
var testBase = time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)

// mkRecord builds a deterministic record for index i (Seq left zero).
func mkRecord(i int) auditstore.Record {
	ops := [...]string{"open_device", "read_screen", "inject_input"}
	verdict, reason := "grant", "interaction 1s ago"
	if i%3 == 0 {
		verdict, reason = "deny", "no recent interaction"
	}
	return auditstore.Record{
		Time:    testBase.Add(time.Duration(i) * 50 * time.Millisecond),
		Session: uint64(i % 4),
		PID:     100 + i%7,
		Op:      ops[i%len(ops)],
		Verdict: verdict,
		Reason:  reason,
		Stamp:   testBase.Add(-2 * time.Second),
	}
}

// decisionStream builds the first n decisions of a deterministic
// monitor stream (what a Tail consumes).
func decisionStream(n int) []monitor.Decision {
	out := make([]monitor.Decision, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, mkRecord(i).Decision())
	}
	return out
}

// fillStore appends records 0..n-1 and fails the test on any error.
func fillStore(t *testing.T, st auditstore.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq, err := st.Append(mkRecord(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, want)
		}
	}
}

// checkPrefix asserts the store holds exactly records 0..n-1 of the
// mkRecord stream, field for field.
func checkPrefix(t *testing.T, st auditstore.Store, n int) {
	t.Helper()
	count, err := st.Count()
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := st.Get(uint64(i + 1))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i+1, ok, err)
		}
		want := mkRecord(i)
		want.Seq = uint64(i + 1)
		if !sameRecord(got, want) {
			t.Fatalf("record %d diverged:\n got %+v\nwant %+v", i+1, got, want)
		}
	}
}

// sameRecord reports whether two records agree field by field, with
// instants compared by Equal.
func sameRecord(a, b auditstore.Record) bool {
	return a.Seq == b.Seq && a.Time.Equal(b.Time) && a.Session == b.Session &&
		a.PID == b.PID && a.Op == b.Op && a.Verdict == b.Verdict &&
		a.Reason == b.Reason && a.Stamp.Equal(b.Stamp) && a.Degraded == b.Degraded
}

func TestMemStoreCRUD(t *testing.T) {
	m := auditstore.NewMemStore()
	fillStore(t, m, 50)
	checkPrefix(t, m, 50)

	if _, ok, err := m.Get(0); ok || err != nil {
		t.Fatalf("get 0: ok=%v err=%v, want miss", ok, err)
	}
	if _, ok, err := m.Get(51); ok || err != nil {
		t.Fatalf("get past end: ok=%v err=%v, want miss", ok, err)
	}
	if m.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d, want 50", m.LastSeq())
	}

	// Explicit matching seq is accepted; a wrong one is rejected.
	r := mkRecord(50)
	r.Seq = 51
	if _, err := m.Append(r); err != nil {
		t.Fatalf("append explicit seq: %v", err)
	}
	r = mkRecord(51)
	r.Seq = 99
	if _, err := m.Append(r); !errors.Is(err, auditstore.ErrSeqMismatch) {
		t.Fatalf("append wrong seq: %v, want ErrSeqMismatch", err)
	}

	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := m.Append(mkRecord(0)); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if _, _, err := m.Get(1); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("get after close: %v, want ErrClosed", err)
	}
	if err := m.Scan(auditstore.Query{}, func(auditstore.Record) bool { return true }); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("scan after close: %v, want ErrClosed", err)
	}
	if err := m.Close(); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
}

func TestQueryFilters(t *testing.T) {
	m := auditstore.NewMemStore()
	fillStore(t, m, 60)

	scan := func(q auditstore.Query) []auditstore.Record {
		t.Helper()
		out, err := auditstore.ScanAll(m, q)
		if err != nil {
			t.Fatalf("scan %+v: %v", q, err)
		}
		return out
	}

	if got := scan(auditstore.Query{}); len(got) != 60 {
		t.Fatalf("zero query: %d records, want 60", len(got))
	}
	for _, r := range scan(auditstore.Query{PID: 103}) {
		if r.PID != 103 {
			t.Fatalf("pid filter leaked %+v", r)
		}
	}
	deny := scan(auditstore.Query{Verdict: "deny"})
	if len(deny) != 20 {
		t.Fatalf("deny count = %d, want 20", len(deny))
	}
	for _, r := range deny {
		if r.Verdict != "deny" {
			t.Fatalf("verdict filter leaked %+v", r)
		}
	}
	if got := scan(auditstore.Query{Verdict: "unknown"}); len(got) != 0 {
		t.Fatalf("unknown verdict matched %d records", len(got))
	}
	if got := scan(auditstore.Query{Reason: "recent"}); len(got) != 20 {
		t.Fatalf("reason substring = %d records, want 20", len(got))
	}

	// Since/Until bound on record time; records are 50ms apart.
	since := testBase.Add(1 * time.Second) // records 20..59
	until := testBase.Add(2 * time.Second) // records ..39
	if got := scan(auditstore.Query{Since: since}); len(got) != 40 {
		t.Fatalf("since = %d records, want 40", len(got))
	}
	if got := scan(auditstore.Query{Since: since, Until: until}); len(got) != 20 {
		t.Fatalf("since+until = %d records, want 20", len(got))
	}

	if got := scan(auditstore.Query{Session: 2}); len(got) != 15 {
		t.Fatalf("session = %d records, want 15", len(got))
	}

	got := scan(auditstore.Query{Limit: 7})
	if len(got) != 7 || got[0].Seq != 1 || got[6].Seq != 7 {
		t.Fatalf("limit: got %d records starting at %d", len(got), got[0].Seq)
	}

	// Combined posting-list paths stay consistent with a brute scan.
	want := 0
	for i := 0; i < 60; i++ {
		r := mkRecord(i)
		if r.PID == 100 && r.Verdict == "deny" {
			want++
		}
	}
	if got := scan(auditstore.Query{PID: 100, Verdict: "deny"}); len(got) != want {
		t.Fatalf("pid+verdict = %d records, want %d", len(got), want)
	}

	// Early stop: yield false ends the scan.
	seen := 0
	if err := m.Scan(auditstore.Query{}, func(auditstore.Record) bool {
		seen++
		return seen < 3
	}); err != nil {
		t.Fatalf("early-stop scan: %v", err)
	}
	if seen != 3 {
		t.Fatalf("early stop saw %d records, want 3", seen)
	}
}

func TestFileStoreAppendGetReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec := st.Recovery(); !rec.Clean || rec.Records != 0 {
		t.Fatalf("fresh open recovery = %+v, want clean empty", rec)
	}
	fillStore(t, st, 100)
	checkPrefix(t, st, 100)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	rec := st2.Recovery()
	if !rec.Clean || rec.Truncated || rec.Records != 100 || rec.LastSeq != 100 {
		t.Fatalf("reopen recovery = %+v, want clean 100 records", rec)
	}
	checkPrefix(t, st2, 100)

	// The reopened store keeps appending where the stream left off.
	seq, err := st2.Append(mkRecord(100))
	if err != nil || seq != 101 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestFileStoreRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 100)
	sealed, active := st.SegmentCount()
	if sealed >= 3 || active != 1 {
		t.Fatalf("segments: sealed=%d active=%d, want compaction to keep sealed < 3", sealed, active)
	}
	checkPrefix(t, st, 100)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(names) != sealed+active {
		t.Fatalf("directory has %d segments, store tracked %d", len(names), sealed+active)
	}

	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	if rec := st2.Recovery(); !rec.Clean || rec.Records != 100 {
		t.Fatalf("reopen recovery = %+v, want clean 100 records", rec)
	}
	checkPrefix(t, st2, 100)
}

func TestFileStoreManualCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4, CompactSealed: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close() //overhaul:allow errdrop test cleanup
	fillStore(t, st, 40)
	sealed, _ := st.SegmentCount()
	if sealed < 9 {
		t.Fatalf("sealed = %d before manual compact, want >= 9 (auto compaction disabled)", sealed)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if sealed, _ = st.SegmentCount(); sealed != 1 {
		t.Fatalf("sealed = %d after compact, want 1", sealed)
	}
	checkPrefix(t, st, 40)
}

// TestFileStoreSyncOption runs a store with Options.Sync through every
// path that fsyncs — rotation, an automatic tier merge, Compact and
// Close — with both Append and AppendBatch, then reopens it and checks
// that the trail is intact and the recovery clean.
func TestFileStoreSyncOption(t *testing.T) {
	dir := t.TempDir()
	opts := auditstore.Options{SegmentRecords: 4, CompactSealed: 3, Sync: true}
	st, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	n := 0
	for ; n < 10; n++ {
		if _, err := st.Append(mkRecord(n)); err != nil {
			t.Fatalf("append %d: %v", n, err)
		}
	}
	batch := make([]auditstore.Record, 0, 6)
	for i := 0; i < 6; i++ {
		batch = append(batch, mkRecord(n+i))
	}
	if _, err := st.AppendBatch(batch); err != nil {
		t.Fatalf("append batch: %v", err)
	}
	n += len(batch)
	for ; n < 30; n++ {
		if _, err := st.Append(mkRecord(n)); err != nil {
			t.Fatalf("append %d: %v", n, err)
		}
	}
	merged := st.BatchStats().CompactedRecords
	if merged == 0 {
		t.Fatal("no tier merge ran")
	}
	if sealed, _ := st.SegmentCount(); sealed < 2 {
		t.Fatalf("sealed = %d, want >= 2 so Compact has work", sealed)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st.BatchStats().CompactedRecords == merged {
		t.Fatal("Compact rewrote nothing")
	}
	checkPrefix(t, st, n)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	if rec := st2.Recovery(); !rec.Clean || rec.Records != n {
		t.Fatalf("reopen recovery = %+v, want clean %d records", rec, n)
	}
	checkPrefix(t, st2, n)
}

func TestFileStoreFailClosed(t *testing.T) {
	dir := t.TempDir()
	inj, err := faultinject.New(1, faultinject.Rule{
		Point: faultinject.PointStoreAppend, Kind: faultinject.KindCrash, After: 5, Count: 1,
	})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16, Hook: inj.Hook()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	acked := 0
	var failErr error
	for i := 0; i < 10; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			failErr = err
			break
		}
		acked++
	}
	if failErr == nil || !errors.Is(failErr, auditstore.ErrStoreFailed) {
		t.Fatalf("append fault: %v, want ErrStoreFailed", failErr)
	}
	if acked != 5 {
		t.Fatalf("acked = %d, want 5", acked)
	}

	// Fail closed: reads fail too — a store that cannot vouch for its
	// tail must not answer as if it could.
	if _, _, err := st.Get(1); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("get after failure: %v, want ErrStoreFailed", err)
	}
	if err := st.Scan(auditstore.Query{}, func(auditstore.Record) bool { return true }); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("scan after failure: %v, want ErrStoreFailed", err)
	}
	if _, err := st.Count(); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("count after failure: %v, want ErrStoreFailed", err)
	}
	if _, err := st.Append(mkRecord(acked)); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("append after failure: %v, want ErrStoreFailed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close failed store: %v", err)
	}

	// Reopen recovers the acked prefix.
	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	checkPrefix(t, st2, acked)
}

func TestFileStoreTornTailReported(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 10)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Corrupt the active segment with a torn half-frame, the way a
	// power cut mid-write would.
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("glob: %v (%d segments)", err, len(names))
	}
	last := names[len(names)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte("000000ffdeadbeef{\"seq\":torn")); err != nil {
		t.Fatalf("tear segment: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close segment: %v", err)
	}

	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := st2.Recovery()
	if rec.Clean || !rec.Truncated {
		t.Fatalf("recovery = %+v, want reported truncation", rec)
	}
	if rec.TruncatedFile != filepath.Base(last) || rec.TruncatedOffset == 0 {
		t.Fatalf("truncation point = %s:%d, want %s:>0", rec.TruncatedFile, rec.TruncatedOffset, filepath.Base(last))
	}
	if rec.Reason == "" || rec.DroppedBytes == 0 {
		t.Fatalf("recovery = %+v, want reason and dropped bytes", rec)
	}
	checkPrefix(t, st2, 10)
	if err := st2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Normalization means the next open is clean: the damage was
	// rewritten away, not left to be re-reported forever.
	st3, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer st3.Close() //overhaul:allow errdrop test cleanup
	if rec := st3.Recovery(); !rec.Clean {
		t.Fatalf("post-normalize recovery = %+v, want clean", rec)
	}
	checkPrefix(t, st3, 10)
}

func TestTailSyncAndRebind(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tail, err := auditstore.NewTail(st, 3)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	dstream := decisionStream(12)
	if n, err := tail.Sync(dstream); err != nil || n != 12 {
		t.Fatalf("sync: n=%d err=%v, want 12", n, err)
	}
	if n, err := tail.Sync(dstream); err != nil || n != 0 {
		t.Fatalf("re-sync: n=%d err=%v, want 0 (idempotent)", n, err)
	}
	dstream = decisionStream(20)
	if n, err := tail.Sync(dstream); err != nil || n != 8 {
		t.Fatalf("grow sync: n=%d err=%v, want 8", n, err)
	}
	count, err := st.Count()
	if err != nil || count != 20 {
		t.Fatalf("count = %d err=%v, want 20", count, err)
	}
	got, err := auditstore.ScanAll(st, auditstore.Query{Session: 3})
	if err != nil || len(got) != 20 {
		t.Fatalf("session query = %d records err=%v, want 20", len(got), err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Rebind onto a reopened store resumes at the recovered count.
	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	if err := tail.Rebind(st2); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if tail.Cursor() != 20 {
		t.Fatalf("cursor after reset = %d, want 20", tail.Cursor())
	}
	dstream = decisionStream(25)
	if n, err := tail.Sync(dstream); err != nil || n != 5 {
		t.Fatalf("post-reset sync: n=%d err=%v, want 5", n, err)
	}
}
