package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestRunJSONReport runs a small load into a store and decodes the
// -json output into the report type, field for field.
func TestRunJSONReport(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-sessions", "8", "-workers", "2", "-duration", "300ms", "-mix", "spyware-heavy",
		"-store", filepath.Join(t.TempDir(), "store"), "-sink-batch", "4", "-json"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Mix != "spyware-heavy" || rep.Sessions != 8 || rep.Workers != 2 {
		t.Errorf("run shape = %s/%d/%d, want spyware-heavy/8/2", rep.Mix, rep.Sessions, rep.Workers)
	}
	if rep.Events == 0 || rep.Events != rep.Decisions+rep.Notifies || rep.Latency.Count != rep.Events {
		t.Errorf("events %d = %d decisions + %d notifications, latency count %d",
			rep.Events, rep.Decisions, rep.Notifies, rep.Latency.Count)
	}
	if rep.Lateness.Count != rep.Events || rep.InterarrivalNs <= 0 {
		t.Errorf("lateness count %d, interarrival %v ns", rep.Lateness.Count, rep.InterarrivalNs)
	}
	if rep.Store == nil || uint64(rep.Store.Records) != rep.Decisions {
		t.Fatalf("store section %+v, want %d records", rep.Store, rep.Decisions)
	}
	if err := rep.check(); err != nil {
		t.Errorf("decoded report fails its check: %v", err)
	}
}

// TestCheckRejectsBadReports holds the self-check to each invariant:
// every case breaks exactly one, and each must fail.
func TestCheckRejectsBadReports(t *testing.T) {
	good := func() *Report {
		return &Report{Events: 100, Store: &StoreReport{
			Records: 100, RecordsPerSec: 5000, Batches: 10, MaxBatch: 32,
			BatchHist: map[string]uint64{"1": 4, "le32": 6},
		}}
	}
	if err := good().check(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	if err := (&Report{Events: 1}).check(); err != nil {
		t.Fatalf("valid report without a store rejected: %v", err)
	}
	bad := map[string]func(r *Report){
		"no events":    func(r *Report) { r.Events = 0 },
		"dropped acks": func(r *Report) { r.Store.DroppedAcks = 3 },
		"no records":   func(r *Report) { r.Store.Records = 0 },
		"no throughput": func(r *Report) {
			r.Store.Records, r.Store.RecordsPerSec, r.Store.Batches, r.Store.BatchHist = 0, 0, 0, nil
		},
		"zero records/sec": func(r *Report) { r.Store.RecordsPerSec = 0 },
		"zero batches":     func(r *Report) { r.Store.Batches, r.Store.BatchHist = 0, nil },
		"hist mismatch":    func(r *Report) { r.Store.BatchHist = map[string]uint64{"le32": 7} },
	}
	for name, breakIt := range bad {
		r := good()
		breakIt(r)
		if err := r.check(); err == nil {
			t.Errorf("%s: report passed its check", name)
		}
	}
}
