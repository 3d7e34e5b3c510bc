package auditstore_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
)

// TestBatchFaultWindows extends the crash matrix with the two
// group-commit windows (auditstore.batch). Serial appends commit as
// one-record batches, so the windows are deterministic: each Append
// evaluates the point twice — once after the batch is drained but
// before its write (window A), once after the write but before the
// acknowledgement (window B). A fault at window A must lose the whole
// batch (recovered == acked); a crash at window B loses only the
// acknowledgement — the batch is durable, so recovery returns exactly
// one record past the acked prefix.
func TestBatchFaultWindows(t *testing.T) {
	specs := []struct {
		name  string
		rule  faultinject.Rule
		extra int // records recovery may return beyond the acked prefix
	}{
		// After=10 lands on the 6th append's window A (evals 0..9 cover
		// appends 1–5); After=11 lands on its window B.
		{"torn-pre-write", faultinject.Rule{Point: faultinject.PointStoreBatch, Kind: faultinject.KindError, After: 10, Count: 1}, 0},
		{"crash-pre-write", faultinject.Rule{Point: faultinject.PointStoreBatch, Kind: faultinject.KindCrash, After: 10, Count: 1}, 0},
		{"crash-pre-ack", faultinject.Rule{Point: faultinject.PointStoreBatch, Kind: faultinject.KindCrash, After: 11, Count: 1}, 1},
	}
	segSizes := []int{1, 3, 8, 32}
	const total = 40

	for _, spec := range specs {
		for _, segRecs := range segSizes {
			spec, segRecs := spec, segRecs
			t.Run(spec.name+"/seg"+itoa(segRecs), func(t *testing.T) {
				dir := t.TempDir()
				inj, err := faultinject.New(int64(segRecs)*77+int64(len(spec.name)), spec.rule)
				if err != nil {
					t.Fatalf("injector: %v", err)
				}
				st, err := auditstore.Open(dir, auditstore.Options{
					SegmentRecords: segRecs, Hook: inj.Hook(),
				})
				if err != nil {
					t.Fatalf("open: %v", err)
				}

				acked := 0
				sawFail := false
				for i := 0; i < total; i++ {
					if _, err := st.Append(mkRecord(i)); err != nil {
						if !errors.Is(err, auditstore.ErrStoreFailed) {
							t.Fatalf("append %d: %v, want ErrStoreFailed", i, err)
						}
						sawFail = true
						break
					}
					acked++
				}
				if !sawFail {
					t.Fatalf("batch fault never fired in %d appends", total)
				}
				if acked != 5 {
					t.Fatalf("acked %d appends before the window, want 5 (cadence drifted)", acked)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}

				st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: segRecs})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				recovered, err := st2.Count()
				if err != nil {
					t.Fatalf("count: %v", err)
				}
				if recovered != acked+spec.extra {
					t.Fatalf("recovered %d records, want acked %d + %d", recovered, acked, spec.extra)
				}
				checkPrefix(t, st2, recovered)
				for i := recovered; i < total; i++ {
					if _, err := st2.Append(mkRecord(i)); err != nil {
						t.Fatalf("append %d after recovery: %v", i, err)
					}
				}
				checkPrefix(t, st2, total)
				if err := st2.Close(); err != nil {
					t.Fatalf("close recovered: %v", err)
				}
			})
		}
	}
}

// TestBatchCrashConcurrent drives concurrent appenders into a
// probabilistic batch fault and checks the group-commit ack contract:
// every acknowledged record survives recovery, and the recovered
// stream is a gap-free prefix of the submitted one.
func TestBatchCrashConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 60
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindCrash} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj, err := faultinject.New(42, faultinject.Rule{
				Point: faultinject.PointStoreBatch, Kind: kind, Prob: 0.05,
			})
			if err != nil {
				t.Fatalf("injector: %v", err)
			}
			st, err := auditstore.Open(dir, auditstore.Options{
				SegmentRecords: 16, Hook: inj.Hook(), BatchRecords: 8,
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}

			var mu sync.Mutex
			ackedSeqs := map[uint64]bool{}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						seq, err := st.Append(mkRecord(w*perWorker + i))
						if err != nil {
							return
						}
						mu.Lock()
						ackedSeqs[seq] = true
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if len(inj.Events()) == 0 {
				t.Fatal("batch fault never fired")
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close()
			recovered, err := st2.Count()
			if err != nil {
				t.Fatalf("count: %v", err)
			}
			// Every acked sequence number is in the recovered prefix.
			for seq := range ackedSeqs {
				if _, ok, err := st2.Get(seq); err != nil || !ok {
					t.Fatalf("acked seq %d missing after recovery (recovered %d)", seq, recovered)
				}
			}
			// The prefix is gap-free: sequences 1..recovered all present.
			for seq := uint64(1); seq <= uint64(recovered); seq++ {
				if _, ok, err := st2.Get(seq); err != nil || !ok {
					t.Fatalf("gap at seq %d in recovered prefix of %d", seq, recovered)
				}
			}
			if recovered < len(ackedSeqs) {
				t.Fatalf("recovered %d < %d acked", recovered, len(ackedSeqs))
			}
		})
	}
}

// TestGroupCommitAppendBatch pins AppendBatch semantics: contiguous
// sequences, one ack for the lot, and batch statistics that reflect
// the BatchRecords bound.
func TestGroupCommitAppendBatch(t *testing.T) {
	st, err := auditstore.Open(t.TempDir(), auditstore.Options{BatchRecords: 32})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()

	recs := make([]auditstore.Record, 100)
	for i := range recs {
		recs[i] = mkRecord(i)
	}
	last, err := st.AppendBatch(recs)
	if err != nil {
		t.Fatalf("append batch: %v", err)
	}
	if last != 100 {
		t.Fatalf("last seq %d, want 100", last)
	}
	checkPrefix(t, st, 100)

	stats := st.BatchStats()
	if stats.Records != 100 {
		t.Fatalf("stats.Records = %d, want 100", stats.Records)
	}
	if stats.Batches != 4 { // 32+32+32+4
		t.Fatalf("stats.Batches = %d, want 4", stats.Batches)
	}
	if stats.MaxBatch != 32 {
		t.Fatalf("stats.MaxBatch = %d, want 32", stats.MaxBatch)
	}
	var histSum uint64
	for _, n := range stats.SizeHist {
		histSum += n
	}
	if histSum != stats.Batches {
		t.Fatalf("size histogram sums to %d, want %d", histSum, stats.Batches)
	}

	// An empty batch is a no-op acknowledging the current durable seq.
	if seq, err := st.AppendBatch(nil); err != nil || seq != 100 {
		t.Fatalf("empty batch: seq=%d err=%v, want 100", seq, err)
	}

	// Sequence pinning: a wrong non-zero Seq rejects the whole batch.
	bad := []auditstore.Record{mkRecord(0)}
	bad[0].Seq = 7
	if _, err := st.AppendBatch(bad); !errors.Is(err, auditstore.ErrSeqMismatch) {
		t.Fatalf("mismatched batch seq: %v, want ErrSeqMismatch", err)
	}
}

// TestUnencodablePIDFailsOnlyItsAppend pins that a pid the segment
// codec cannot carry is refused before a sequence is assigned: the
// Append or AppendBatch holding it fails, and the store keeps taking
// appends at the next sequence.
func TestUnencodablePIDFailsOnlyItsAppend(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 3)
	bad := mkRecord(3)
	bad.PID = 1 << 40
	if _, err := st.Append(bad); err == nil {
		t.Fatal("append of pid 1<<40 succeeded")
	}
	if _, err := st.AppendBatch([]auditstore.Record{mkRecord(3), bad}); err == nil {
		t.Fatal("append batch holding pid 1<<40 succeeded")
	}
	if seq, err := st.Append(mkRecord(3)); err != nil || seq != 4 {
		t.Fatalf("append after the refusal: seq=%d err=%v, want 4", seq, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !re.Recovery().Clean {
		t.Fatalf("recovery after a refused pid: %+v", re.Recovery())
	}
	checkPrefix(t, re, 4)
}

// TestBatchSinkUnencodableFailsAlone pins the sink's handling of a
// decision the store could never hold: it is counted as one failed
// append on arrival, and the decisions buffered around it still land,
// in order and field for field.
func TestBatchSinkUnencodableFailsAlone(t *testing.T) {
	st := tempStore(t, 0)
	var stats auditstore.SinkStats
	bs := auditstore.NewBatchSink(st, 7, 4, &stats)
	sink := bs.Sink()
	var want []auditstore.Record
	for i := 0; i < 6; i++ {
		d := mkRecord(i).Decision()
		if i == 2 {
			d.OpTime = time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
		} else {
			r := auditstore.FromDecision(d, 7)
			r.Seq = uint64(len(want) + 1)
			want = append(want, r)
		}
		sink(d)
	}
	bs.Flush()
	if a, e := stats.Appends.Load(), stats.Errors.Load(); a != 6 || e != 1 {
		t.Fatalf("sink counted %d appends, %d errors; want 6, 1", a, e)
	}
	got, err := auditstore.ScanAll(st, auditstore.Query{})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("store holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestGroupCommitConcurrent floods the store from many goroutines and
// checks the commit accounting: everything acked, everything counted,
// the histogram consistent, and no batch beyond the configured bound.
func TestGroupCommitConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 50
	st, err := auditstore.Open(t.TempDir(), auditstore.Options{
		SegmentRecords: 64, BatchRecords: 16,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := st.Append(mkRecord(w*perWorker + i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	count, err := st.Count()
	if err != nil || count != workers*perWorker {
		t.Fatalf("count = %d err=%v, want %d", count, err, workers*perWorker)
	}
	stats := st.BatchStats()
	if stats.Records != uint64(workers*perWorker) {
		t.Fatalf("stats.Records = %d, want %d", stats.Records, workers*perWorker)
	}
	if stats.MaxBatch > 16 {
		t.Fatalf("stats.MaxBatch = %d exceeds BatchRecords 16", stats.MaxBatch)
	}
	var histSum uint64
	for _, n := range stats.SizeHist {
		histSum += n
	}
	if histSum != stats.Batches {
		t.Fatalf("size histogram sums to %d, want %d", histSum, stats.Batches)
	}
}

// TestAppendDuringRotationCompletes pins the leadership hand-off
// across a rotation: an Append that enqueues while the commit leader
// is rotating (it owns the committing flag and has released mu) must
// be committed once the leader finishes, by that leader's next batch
// or by promoting itself. A follower stranded behind a leader that
// returned with a non-empty queue would block forever, so this test
// hangs on its watchdog if the hand-off breaks.
func TestAppendDuringRotationCompletes(t *testing.T) {
	rotating := make(chan struct{})
	appendRunning := make(chan struct{})
	var once sync.Once
	hook := func(p faultinject.Point) faultinject.Fault {
		if p == faultinject.PointStoreRotate {
			once.Do(func() {
				close(rotating)
				<-appendRunning
				// Let the appender enqueue and park on the condition
				// variable while the leader still owns the commit.
				time.Sleep(100 * time.Millisecond) //overhaul:allow clockcheck real-time pause widens the rotation window the racing Append must land in; no store clock is in play
			})
		}
		return faultinject.Fault{}
	}
	st, err := auditstore.Open(t.TempDir(), auditstore.Options{SegmentRecords: 2, Hook: hook})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()

	// Fill the active segment, so the next commit rotates first.
	const seeded = 2
	for i := 0; i < seeded; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			t.Fatalf("seed append %d: %v", i, err)
		}
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := st.Append(mkRecord(seeded))
		leaderDone <- err
	}()
	<-rotating
	appendDone := make(chan error, 1)
	go func() {
		close(appendRunning)
		_, err := st.Append(mkRecord(seeded + 1))
		appendDone <- err
	}()

	watchdog := time.After(10 * time.Second) //overhaul:allow clockcheck watchdog for a test that otherwise hangs; the store itself never reads this clock
	for name, done := range map[string]chan error{"leader": leaderDone, "follower": appendDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s append across the rotation: %v", name, err)
			}
		case <-watchdog:
			t.Fatalf("%s append hung after the rotating leader released the commit", name)
		}
	}
	checkPrefix(t, st, seeded+2)
}

// TestBatchBucketLabels pins the histogram bucket naming the load
// generator's throughput report prints.
func TestBatchBucketLabels(t *testing.T) {
	want := []string{"1", "2", "le4", "le8", "le16", "le32", "le64", "le128", "gt128"}
	for i, w := range want {
		if got := auditstore.BatchBucketLabel(i); got != w {
			t.Errorf("bucket %d label = %q, want %q", i, got, w)
		}
	}
}

// TestGroupCommitLiveness drives 2 and 8 appenders of 32-record
// batches into a store that stays healthy, hits a PointStoreBatch
// fault, or is closed mid-stream, at the GOMAXPROCS of the run (CI
// sweeps -cpu 1,2,4: followers park at 1 and spin first above). Every
// AppendBatch must return, nil or with the store's failure; once all
// have, no record may sit queued without a leader; and a reopen must
// recover every acknowledged record field for field. A leader that
// released the leadership with records queued and woke no one would
// strand their appenders, and the watchdog would fire.
func TestGroupCommitLiveness(t *testing.T) {
	const batch, perAppender = 32, 40
	for _, appenders := range []int{2, 8} {
		for _, mode := range []string{"clean", "batch-fault", "close"} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(mode+"/appenders="+itoa(appenders)+"/seed="+itoa(int(seed)), func(t *testing.T) {
					liveness(t, mode, seed, appenders, batch, perAppender)
				})
			}
		}
	}
}

func liveness(t *testing.T, mode string, seed int64, appenders, batch, perAppender int) {
	dir := t.TempDir()
	opts := auditstore.Options{SegmentRecords: 256, BatchRecords: 64}
	inj, err := faultinject.New(seed, faultinject.Rule{
		Point: faultinject.PointStoreBatch, Kind: faultinject.KindCrash, After: 5 * int(seed), Count: 1,
	})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	if mode == "batch-fault" {
		opts.Hook = inj.Hook()
	}
	st, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	recs := make([][]auditstore.Record, appenders)
	for a := range recs {
		recs[a] = make([]auditstore.Record, batch)
		for i := range recs[a] {
			recs[a][i] = mkRecord(a*batch + i)
		}
	}
	type ack struct {
		appender int
		last     uint64
	}
	var mu sync.Mutex
	var acks []ack
	closeAt := appenders * perAppender / 3 // acknowledged batches before the racing Close
	closed := make(chan error, 1)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				last, err := st.AppendBatch(recs[a])
				if err != nil {
					if !errors.Is(err, auditstore.ErrStoreFailed) && !errors.Is(err, auditstore.ErrClosed) {
						t.Errorf("appender %d: %v, want nil, ErrStoreFailed or ErrClosed", a, err)
					}
					return
				}
				mu.Lock()
				acks = append(acks, ack{a, last})
				if mode == "close" && len(acks) == closeAt {
					go func() { closed <- st.Close() }()
				}
				mu.Unlock()
			}
		}(a)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog := time.After(10 * time.Second) //overhaul:allow clockcheck watchdog for a test that otherwise hangs; the store itself never reads this clock
	select {
	case <-done:
	case <-watchdog:
		queued, leading := st.Queued()
		t.Fatalf("appenders hung: %d records queued, leader active %v", queued, leading)
	}

	queued, leading := st.Queued()
	if leading {
		t.Fatalf("a leader is still active after every appender returned")
	}
	if mode == "clean" && queued != 0 {
		t.Fatalf("%d records queued with no appender left to lead them", queued)
	}
	if mode != "close" {
		go func() { closed <- st.Close() }()
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-watchdog:
		t.Fatal("close hung waiting out a leader")
	}
	if mode == "clean" && len(acks) != appenders*perAppender {
		t.Fatalf("%d batches acknowledged, want %d", len(acks), appenders*perAppender)
	}
	if mode == "batch-fault" && len(inj.Events()) == 0 {
		t.Fatal("batch fault never fired")
	}

	re, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	n, err := re.Count()
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n < len(acks)*batch {
		t.Fatalf("recovered %d records, fewer than the %d acknowledged", n, len(acks)*batch)
	}
	for _, a := range acks {
		for i, want := range recs[a.appender] {
			want.Seq = a.last - uint64(batch-1-i)
			got, ok, err := re.Get(want.Seq)
			if err != nil || !ok || !sameRecord(got, want) {
				t.Fatalf("acked seq %d after reopen: ok=%v err=%v\n got %+v\nwant %+v", want.Seq, ok, err, got, want)
			}
		}
	}
}

// TestLongPayloadFramesRoundTrip appends frames whose length prefix
// takes one, two and three bytes between short ones in one batch, and
// reads every record back live and after a reopen.
func TestLongPayloadFramesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := make([]auditstore.Record, 9)
	for i := range recs {
		recs[i] = mkRecord(i)
		switch i % 3 {
		case 1:
			recs[i].Reason = strings.Repeat("r", 200)
		case 2:
			recs[i].Reason = strings.Repeat("s", 20000)
		}
	}
	if _, err := st.AppendBatch(recs); err != nil {
		t.Fatalf("append batch: %v", err)
	}
	check := func(st *auditstore.FileStore, when string) {
		for i, want := range recs {
			want.Seq = uint64(i + 1)
			if got, ok, err := st.Get(want.Seq); err != nil || !ok || !sameRecord(got, want) {
				t.Fatalf("%s: seq %d: ok=%v err=%v, reason %d bytes, want %d", when, want.Seq, ok, err, len(got.Reason), len(want.Reason))
			}
		}
	}
	check(st, "live")
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !re.Recovery().Clean {
		t.Fatalf("reopen not clean: %+v", re.Recovery())
	}
	check(re, "reopened")
}
