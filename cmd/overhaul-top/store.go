package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"overhaul/internal/auditstore"
)

// storeQuery carries the parsed -since/-pid/-verdict/-reason/-session/
// -limit flags of a store query.
type storeQuery struct {
	since   string
	pid     int
	verdict string
	reason  string
	session uint64
	limit   int
}

// build turns the flags into an auditstore.Query. -since is either an
// absolute RFC3339 instant or a duration counted back from the newest
// record, which newest finds (the store's own timeline — there is no
// wall clock in a replayed trail); only a relative bound calls it.
func (q storeQuery) build(newest func() (time.Time, error)) (auditstore.Query, error) {
	query := auditstore.Query{
		PID:     q.pid,
		Verdict: q.verdict,
		Reason:  q.reason,
		Session: q.session,
		Limit:   q.limit,
	}
	if q.since == "" {
		return query, nil
	}
	if t, err := time.Parse(time.RFC3339, q.since); err == nil {
		query.Since = t
		return query, nil
	}
	d, err := time.ParseDuration(q.since)
	if err != nil {
		return query, fmt.Errorf("-since %q: not an RFC3339 time or a duration", q.since)
	}
	last, err := newest()
	if err != nil {
		return query, err
	}
	if !last.IsZero() { // an empty store matches nothing either way
		query.Since = last.Add(-d)
	}
	return query, nil
}

// runStoreQuery opens a durable audit store directory and prints the
// records matching the query — the forensics path: no live system, no
// clock, just whatever the store recovered, with the recovery report
// up front when the directory did not decode cleanly.
func runStoreQuery(dir string, q storeQuery, jsonOut bool) int {
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	defer st.Close() // read-only query session; nothing to flush

	query, err := q.build(func() (time.Time, error) { return storeNewest(st) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	recs, err := auditstore.ScanAll(st, query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}

	if jsonOut {
		return writeJSON(struct {
			Recovery auditstore.Recovery `json:"recovery"`
			Records  []auditstore.Record `json:"records"`
		}{st.Recovery(), recs})
	}

	rec := st.Recovery()
	total, err := st.Count()
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	fmt.Printf("== store %s (%d records", dir, total)
	if rec.LastSeq > 0 {
		fmt.Printf(", last seq %d", rec.LastSeq)
	}
	fmt.Print(") ==\n")
	if !rec.Clean {
		fmt.Printf("recovery: truncated at %s:%d (%s); dropped %d records, %d bytes\n",
			rec.TruncatedFile, rec.TruncatedOffset, rec.Reason, rec.DroppedRecords, rec.DroppedBytes)
	}
	printRecords(recs)
	fmt.Printf("(%d matched)\n", len(recs))
	return 0
}

// runColdQuery answers a store query straight off the sealed segments
// — no FileStore is opened and no in-memory index is built. Footers
// prune whole segments behind a -since bound and seek within the
// segment that straddles it, so a narrow time window over a long trail
// reads a fraction of the frames the warm path would decode. A
// relative -since is anchored to the newest record time the segment
// footers carry.
func runColdQuery(dir string, q storeQuery, jsonOut bool) int {
	query, err := q.build(func() (time.Time, error) { return auditstore.SegmentsNewest(dir) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	var recs []auditstore.Record
	stats, err := auditstore.ScanSegments(dir, query, func(r auditstore.Record) bool {
		recs = append(recs, r)
		return true
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}

	if jsonOut {
		return writeJSON(struct {
			Cold    auditstore.ColdStats `json:"cold"`
			Records []auditstore.Record  `json:"records"`
		}{stats, recs})
	}

	fmt.Printf("== store %s (cold: %d segments, %d skipped, %d seeked) ==\n",
		dir, stats.Segments, stats.SkippedSegments, stats.SeekedSegments)
	if stats.Truncated {
		fmt.Printf("truncated: %s (%s)\n", stats.TruncatedFile, stats.Reason)
	}
	printRecords(recs)
	fmt.Printf("(%d matched of %d decoded)\n", stats.Matched, stats.Records)
	return 0
}

// storeNewest is the newest record time in an open store, zero when
// it is empty.
func storeNewest(st *auditstore.FileStore) (time.Time, error) {
	var newest time.Time
	err := st.Scan(auditstore.Query{}, func(r auditstore.Record) bool {
		if r.Time.After(newest) {
			newest = r.Time
		}
		return true
	})
	return newest, err
}

// printRecords renders records one console line each.
func printRecords(recs []auditstore.Record) {
	for _, r := range recs {
		verdict := "DENY "
		if r.Verdict == "grant" {
			verdict = "GRANT"
		}
		sess := ""
		if r.Session != 0 {
			sess = fmt.Sprintf(" session=%d", r.Session)
		}
		degraded := ""
		if r.Degraded {
			degraded = " degraded=1"
		}
		fmt.Printf("  %6d %s %s pid=%d op=%s%s %s%s\n",
			r.Seq, r.Time.Format("15:04:05.000"), verdict, r.PID, r.Op, sess, r.Reason, degraded)
	}
}

// writeJSON prints v as indented JSON and returns the exit code.
func writeJSON(v any) int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	return 0
}
