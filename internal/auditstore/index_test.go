package auditstore_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"overhaul/internal/auditstore"
)

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIndexHeapPerRecord pins the index's memory cost: a record costs
// its 32-byte entry plus two 4-byte posting positions and growth
// slack, with its strings held once per distinct tuple in the kind
// table — after appends, and after a reopen, whose recovery decode
// interns the strings instead of allocating them per record.
func TestIndexHeapPerRecord(t *testing.T) {
	const (
		n       = 50_000
		reasons = 48
		batch   = 256
		maxPer  = 64 // bytes per record
	)
	why := make([]string, reasons)
	for i := range why {
		why[i] = fmt.Sprintf("interaction %d.%02ds ago", i/10, i)
	}
	buf := make([]auditstore.Record, 0, batch)
	dir := t.TempDir()
	check := func(when string, heap0 int64, st *auditstore.FileStore) {
		t.Helper()
		per := float64(liveHeap()-heap0) / n
		if c, err := st.Count(); err != nil || c != n {
			t.Fatalf("%s: count = %d, err = %v; want %d", when, c, err, n)
		}
		t.Logf("%s: %.1f B/record", when, per)
		if per > maxPer {
			t.Errorf("%s: index heap %.1f B/record, want <= %d", when, per, maxPer)
		}
	}

	heap0 := liveHeap()
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < n; i += batch {
		buf = buf[:0]
		for j := i; j < min(i+batch, n); j++ {
			r := mkRecord(j)
			r.Reason = why[j%reasons]
			buf = append(buf, r)
		}
		if _, err := st.AppendBatch(buf); err != nil {
			t.Fatalf("append at %d: %v", i, err)
		}
	}
	check("after appends", heap0, st)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st = nil
	heap0 = liveHeap()
	st, err = auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	check("after reopen", heap0, st)
}

// readPaths reads every record of st through Get, Iter and Scan and
// fails unless the three agree exactly (==, not field-wise Equal).
func readPaths(t *testing.T, what string, st *auditstore.FileStore) []auditstore.Record {
	t.Helper()
	scanned, err := auditstore.ScanAll(st, auditstore.Query{})
	if err != nil {
		t.Fatalf("%s scan: %v", what, err)
	}
	it, err := st.Iter(auditstore.Query{})
	if err != nil {
		t.Fatalf("%s iter: %v", what, err)
	}
	var iterated []auditstore.Record
	for r := (auditstore.Record{}); it.Next(&r); {
		iterated = append(iterated, r)
	}
	exactRecords(t, what+" iter vs scan", iterated, scanned)
	for _, r := range scanned {
		got, ok, err := st.Get(r.Seq)
		if err != nil || !ok || got != r {
			t.Fatalf("%s get %d = %+v ok=%v err=%v, scan read %+v", what, r.Seq, got, ok, err, r)
		}
	}
	return scanned
}

// exactRecords fails unless got and want hold ==-equal records.
func exactRecords(t *testing.T, what string, got, want []auditstore.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s record %d:\n got %#v\nwant %#v", what, i, got[i], want[i])
		}
	}
}

// TestReadRepresentationStable pins how a record reads back: Get, Iter
// and Scan return the same Record before and after a reopen, and the
// same one ScanSegments decodes from the files. Times come back as
// UTC instants without a monotonic reading, a zero Time or Stamp as
// the zero time, and Degraded and strings as appended — including a
// reason first seen while an iterator's snapshot was open.
func TestReadRepresentationStable(t *testing.T) {
	dir := t.TempDir()
	opts := auditstore.Options{SegmentRecords: 8}
	st, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	east := time.FixedZone("UTC+9", 9*3600)
	var recs []auditstore.Record
	for i := 0; i < 30; i++ {
		r := mkRecord(i)
		switch i % 5 {
		case 1:
			r.Time = time.Time{}
		case 2:
			r.Stamp = time.Time{}
		case 3:
			r.Degraded = true
			r.Time = r.Time.In(east)
		case 4:
			//overhaul:allow clockcheck only the wall clock yields a time with a monotonic reading, which the store must drop
			r.Time = time.Now()
		}
		recs = append(recs, r)
	}
	if _, err := st.AppendBatch(recs[:20]); err != nil {
		t.Fatalf("append: %v", err)
	}
	open, err := st.Iter(auditstore.Query{})
	if err != nil {
		t.Fatalf("iter: %v", err)
	}
	recs[25].Reason = "a reason first seen under an open iterator"
	if _, err := st.AppendBatch(recs[20:]); err != nil {
		t.Fatalf("append: %v", err)
	}
	var snap []auditstore.Record
	for r := (auditstore.Record{}); open.Next(&r); {
		snap = append(snap, r)
	}

	live := readPaths(t, "live", st)
	exactRecords(t, "open iterator vs live prefix", snap, live[:20])
	for i, r := range live {
		want := recs[i]
		want.Seq = uint64(i + 1)
		if !sameRecord(r, want) {
			t.Fatalf("record %d read %+v, appended %+v", i, r, want)
		}
		if loc := r.Time.Location(); !r.Time.IsZero() && loc != time.UTC {
			t.Fatalf("record %d time in %v, want UTC", i, loc)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	cold, _ := coldRecords(t, dir, auditstore.Query{})
	exactRecords(t, "cold vs live", cold, live)
	reopened, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	exactRecords(t, "reopened vs live", readPaths(t, "reopened", reopened), live)
}

// TestIterKindTableGrowth runs iterators against appends that keep
// growing the kind table (every record a new reason) and fill the
// posting lists, so `go test -race` sees whether the index publishes
// its entry and kind slices only as prefixes captured under the read
// lock. Each iterator must yield exactly its snapshot.
func TestIterKindTableGrowth(t *testing.T) {
	st := tempStore(t, 64)
	const batches, per = 40, 16
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]auditstore.Record, per)
		for b := 0; b < batches; b++ {
			for i := range buf {
				buf[i] = mkRecord(64 + b*per + i)
				buf[i].Reason = fmt.Sprintf("interaction %d ago", b*per+i)
			}
			if _, err := st.AppendBatch(buf); err != nil {
				t.Errorf("append batch %d: %v", b, err)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		n, err := st.Count()
		if err != nil {
			t.Fatalf("count: %v", err)
		}
		// reason's snapshot is taken first, so it lies within all's.
		reason, err := st.Iter(auditstore.Query{Verdict: "grant", Reason: "ago"})
		if err != nil {
			t.Fatalf("iter: %v", err)
		}
		all, err := st.Iter(auditstore.Query{})
		if err != nil {
			t.Fatalf("iter: %v", err)
		}
		var r auditstore.Record
		got := 0
		for all.Next(&r) {
			got++
			if r.Seq != uint64(got) {
				t.Fatalf("round %d: record %d has seq %d", round, got, r.Seq)
			}
			reason.Next(&r)
		}
		if got < n {
			t.Fatalf("round %d: iterator yielded %d records, store held %d before it", round, got, n)
		}
		for reason.Next(&r) {
			if r.Verdict != "grant" || r.Seq > uint64(got) {
				t.Fatalf("round %d: reason iterator yielded %+v outside its snapshot of %d", round, r, got)
			}
		}
	}
	wg.Wait()
	if n, err := st.Count(); err != nil || n != 64+batches*per {
		t.Fatalf("count = %d err = %v, want %d", n, err, 64+batches*per)
	}
}

// TestQueryTimeBoundsOutsideCodecRange checks Since and Until bounds
// that no record time can equal — before year 1, between year 1 and
// the codec's range, past it — against Query.Matches, over a stream
// that holds zero times, on both the seek and the filtered paths.
func TestQueryTimeBoundsOutsideCodecRange(t *testing.T) {
	for _, ordered := range []bool{true, false} {
		st := tempStore(t, 0)
		for i := 0; i < 40; i++ {
			r := mkRecord(i)
			if !ordered && i%7 == 3 {
				r.Time = time.Time{}
			}
			if _, err := st.Append(r); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		all, err := auditstore.ScanAll(st, auditstore.Query{})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		bounds := []time.Time{
			time.Date(-5, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Time{}.Add(1),
			time.Date(1500, 6, 1, 0, 0, 0, 0, time.UTC),
			time.Date(1677, 12, 31, 23, 0, 0, 0, time.FixedZone("UTC-2", -7200)),
			testBase.Add(time.Second),
			time.Date(2262, 6, 1, 0, 0, 0, 0, time.UTC),
			time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
		}
		for _, b := range bounds {
			for _, q := range []auditstore.Query{{Since: b}, {Until: b}, {Since: b, Reason: "interaction"}} {
				var want []auditstore.Record
				for _, r := range all {
					if q.Matches(r) {
						want = append(want, r)
					}
				}
				got, err := auditstore.ScanAll(st, q)
				if err != nil {
					t.Fatalf("scan %+v: %v", q, err)
				}
				exactRecords(t, fmt.Sprintf("ordered=%v query %+v", ordered, q), got, want)
			}
		}
	}
}
