package auditstore_test

import (
	"math/rand"
	"testing"
	"time"

	"overhaul/internal/auditstore"
)

// TestBackendEquivalence pins the store's indexed query engine to a
// sequential reference model: every query over the appended stream
// must return exactly what a linear pass over the appended slice
// returns (Query.Matches per record, then the first Limit matches),
// through both Scan and Iter — live, and again after the segments have
// been rotated and reopened. The model shares no code with
// the index (no posting lists, no time seek, no galloping merge), so
// an index bug cannot cancel out. Two streams run the grid: one whose
// times only ascend, so Since queries take the binary-search seek, and
// one whose times occasionally step back, so they take the filtered
// scan. This mirrors the fleet ≡ standalone property-test style: one
// oracle, one system under test, a seeded input space, and a filter
// grid. The two "sealed" streams run at the default segment size, so
// the reopen adopts whole sealed segments as index chunks.
func TestBackendEquivalence(t *testing.T) {
	// Record i's time is i·100 ms plus a step drawn from
	// [minStep, minStep+span) ms: a span over 100 ms lets times overlap
	// their neighbours' slots and so step back.
	sealed := 2*auditstore.DefaultSegmentRecords + 300
	for _, stream := range []struct {
		name          string
		minStep, span int
		n, segRecs    int // records; Options.SegmentRecords
		batch         int // records per append
	}{
		{"ascending", 0, 100, 500, 16, 1},
		{"jittered", -10, 200, 500, 16, 1},
		{"ascending-sealed", 0, 100, sealed, 0, 64},
		{"jittered-sealed", -10, 200, sealed, 0, 64},
	} {
		t.Run(stream.name, func(t *testing.T) {
			checkEquivalence(t, stream.minStep, stream.span, stream.n, stream.segRecs, stream.batch)
		})
	}
}

func checkEquivalence(t *testing.T, minStep, span, n, segRecs, batch int) {
	rng := rand.New(rand.NewSource(7))
	ops := []string{"open_device", "read_screen", "inject_input", "grab_keyboard"}
	verdicts := []string{"grant", "deny"}
	reasons := []string{
		"interaction 1s ago",
		"no recent interaction",
		"stamp expired",
		"forced by policy",
	}

	var appended []auditstore.Record
	dir := t.TempDir()
	opts := auditstore.Options{SegmentRecords: segRecs}
	file, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	steppedBack := false
	var pending []auditstore.Record
	for i := 0; i < n; i++ {
		step := time.Duration(minStep+rng.Intn(span)) * time.Millisecond
		r := auditstore.Record{
			Time:    testBase.Add(time.Duration(i)*100*time.Millisecond + step),
			Session: uint64(rng.Intn(4)),
			PID:     1 + rng.Intn(10),
			Op:      ops[rng.Intn(len(ops))],
			Verdict: verdicts[rng.Intn(len(verdicts))],
			Reason:  reasons[rng.Intn(len(reasons))],
		}
		if i > 0 && r.Time.Before(appended[i-1].Time) {
			steppedBack = true
		}
		if rng.Intn(3) == 0 {
			r.Stamp = r.Time.Add(-time.Duration(rng.Intn(5)) * time.Second)
		}
		appended = append(appended, r)
		if pending = append(pending, r); len(pending) < batch && i < n-1 {
			continue
		}
		last, err := file.AppendBatch(pending)
		if err != nil {
			t.Fatalf("append through %d: %v", i, err)
		}
		for j := range pending {
			appended[i+1-len(pending)+j].Seq = last + 1 + uint64(j-len(pending))
		}
		pending = pending[:0]
	}
	if wantBack := span > 100; steppedBack != wantBack {
		t.Fatalf("stream stepped back = %v, want %v", steppedBack, wantBack)
	}
	model := func(q auditstore.Query) []auditstore.Record {
		var out []auditstore.Record
		for _, r := range appended {
			if q.Limit > 0 && len(out) == q.Limit {
				break
			}
			if q.Matches(r) {
				out = append(out, r)
			}
		}
		return out
	}

	queries := []auditstore.Query{
		{},
		{PID: 3},
		{PID: 99},
		{Verdict: "deny"},
		{Verdict: "grant"},
		{Verdict: "unknown"},
		{Reason: "interaction"},
		{Reason: "expired"},
		{Session: 2},
		{Since: testBase.Add(20 * time.Second)},
		{Until: testBase.Add(30 * time.Second)},
		{Since: testBase.Add(10 * time.Second), Until: testBase.Add(40 * time.Second)},
		{PID: 5, Verdict: "deny"},
		{PID: 5, Verdict: "deny", Reason: "no recent", Session: 1},
		{PID: 5, Verdict: "deny", Since: testBase.Add(25 * time.Second)},
		{PID: 2, Reason: "expired", Since: testBase.Add(15 * time.Second)},
		{Verdict: "grant", Since: testBase.Add(25 * time.Second), Limit: 17},
		{Since: testBase.Add(60 * time.Second)},
		{Limit: 1},
		{Limit: 499},
	}

	compare := func(t *testing.T, label string, st *auditstore.FileStore) {
		t.Helper()
		for qi, q := range queries {
			want := model(q)
			scanned, err := auditstore.ScanAll(st, q)
			if err != nil {
				t.Fatalf("%s scan %d: %v", label, qi, err)
			}
			it, err := st.Iter(q)
			if err != nil {
				t.Fatalf("%s iter %d: %v", label, qi, err)
			}
			var iterated []auditstore.Record
			for r := (auditstore.Record{}); it.Next(&r); {
				iterated = append(iterated, r)
			}
			for _, got := range []struct {
				how  string
				recs []auditstore.Record
			}{{"scan", scanned}, {"iter", iterated}} {
				if len(got.recs) != len(want) {
					t.Fatalf("%s %s query %d (%+v): %d records, model %d", label, got.how, qi, q, len(got.recs), len(want))
				}
				for i := range want {
					if !sameRecord(got.recs[i], want[i]) {
						t.Fatalf("%s %s query %d record %d:\n got %+v\nwant %+v", label, got.how, qi, i, got.recs[i], want[i])
					}
				}
			}
		}
	}

	compare(t, "live", file)
	if err := file.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reopened, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if rec := reopened.Recovery(); !rec.Clean || rec.Records != n {
		t.Fatalf("reopen recovery = %+v, want clean %d records", rec, n)
	}
	compare(t, "reopened", reopened)
}
