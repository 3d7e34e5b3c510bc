package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/fleet"
	"overhaul/internal/monitor"
	"overhaul/internal/workload"
)

const (
	forensicTrials = 5
	// forensicRate is events/s per session: 2,000 sessions offer 8,000
	// events/s.
	forensicRate  = 4.0
	queryInterval = 10 * time.Millisecond // the reader's 100 queries/s
	forensicWarm  = 500 * time.Millisecond
)

// queryKind is one forensic question the reader asks.
type queryKind uint8

const (
	qSince   queryKind = iota // everything in the last 5 s
	qDeny                     // up to 1,000 denials in the last minute
	qSession                  // one session's last minute
	qReason                   // every stale denial ever
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"since", "deny", "session", "reason"}

// queryWeights (percent) order the kinds' costs deny < since < session
// < reason, so the median query sits inside the since band, 20
// percentile points from either edge.
var queryWeights = [numQueryKinds]int{qSince: 40, qDeny: 30, qSession: 20, qReason: 10}

type fquery struct {
	due  time.Duration
	kind queryKind
	sess uint64
}

// query builds the store query at virtual time vnow.
func (q fquery) query(vnow int64) auditstore.Query {
	ago := func(d time.Duration) time.Time { return time.Unix(0, vnow-int64(d)).UTC() }
	switch q.kind {
	case qSince:
		return auditstore.Query{Since: ago(5 * time.Second)}
	case qDeny:
		return auditstore.Query{Verdict: monitor.VerdictDeny.String(), Since: ago(time.Minute), Limit: 1000}
	case qSession:
		return auditstore.Query{Session: q.sess, Since: ago(time.Minute)}
	default:
		return auditstore.Query{Reason: "stale"}
	}
}

// forensicInputs are the seeded history, the traffic after it, and the
// reader's queries.
type forensicInputs struct {
	sessions         int
	history          []fleetEvent // in due order, up to the cut
	historyDecisions int
	historyRecords   int     // decisions durable at the cut
	cut              int64   // due time of the last history event
	stamps           []int64 // per session at the cut
	trial            []fleetEvent
	queries          []fquery
	oracleSession    uint64
}

// newForensicInputs runs the poisson-desks streams until records
// decisions have filled whole sink batches (the store's size at the
// cut), then schedules span of traffic and queries after the cut.
func newForensicInputs(seed int64, sessions, records int, span time.Duration) *forensicInputs {
	mix := workload.PoissonDesks()
	mix.Rate = forensicRate
	s := newScheduler(mix, sessions, seed)
	in := &forensicInputs{sessions: sessions}
	for s.flushed < records {
		ev := s.next()
		in.history = append(in.history, ev)
		if ev.op >= 0 {
			in.historyDecisions++
		}
	}
	in.historyRecords = s.flushed
	in.cut = in.history[len(in.history)-1].at
	in.stamps = append([]int64(nil), s.stamps...)
	for s.peek() < in.cut+int64(span) {
		in.trial = append(in.trial, s.next())
	}
	rng := rand.New(rand.NewSource(seed))
	for due := time.Duration(0); due < span; due += queryInterval {
		q := fquery{due: due, sess: uint64(1 + rng.Intn(sessions))}
		for r := rng.Intn(100); r >= queryWeights[q.kind]; q.kind++ {
			r -= queryWeights[q.kind]
		}
		in.queries = append(in.queries, q)
	}
	in.oracleSession = uint64(1 + rng.Intn(sessions))
	return in
}

// forensicBase is the pre-built history directory and what its sinks
// still held at the cut.
type forensicBase struct {
	dir     string
	pending [][]monitor.Decision
}

// buildHistory runs the history through a rig on an empty store in dir
// and closes the store at the cut without flushing: decisions still
// buffered in the sinks are kept aside so every trial resumes with
// them.
func buildHistory(in *forensicInputs, dir string, res *result) (*forensicBase, error) {
	r, err := bootRig(dir, in.sessions, 1, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	base := &forensicBase{dir: dir, pending: make([][]monitor.Decision, in.sessions)}
	for i, s := range r.sessions {
		i, sink := i, r.sinks[i].Sink()
		s.SetAuditSink(func(d monitor.Decision) {
			p := append(base.pending[i], d)
			if len(p) == sinkLimit {
				p = p[:0] // the sink flushes with this decision
			}
			base.pending[i] = p
			sink(d)
		})
	}
	var fails workerFailures
	for i := range in.history {
		if err := r.exec(&in.history[i], r.workers[0], nil, 0, -1); err != nil {
			fails.add(err, "history event", i)
		}
	}
	fails.mergeInto(res)
	res.attempted += uint64(len(in.history))
	n, err := r.st.Count()
	if err != nil {
		return nil, err
	}
	res.failDiff(uint64(n), uint64(in.historyRecords), "fleet-forensics: history records")
	return base, r.st.Close()
}

// forensicLats are the latencies one or more trials pool.
type forensicLats struct {
	op          *windows
	query, late *hist
	kinds       [numQueryKinds]*hist
}

func (l *forensicLats) merge(o *forensicLats) {
	l.op.merge(o.op)
	l.query.merge(o.query)
	l.late.merge(o.late)
	for i, h := range o.kinds {
		l.kinds[i].merge(h)
	}
}

func newForensicLats() *forensicLats {
	l := &forensicLats{op: newWindows(1), query: newHist(), late: newHist()}
	for i := range l.kinds {
		l.kinds[i] = newHist()
	}
	return l
}

// forensicTrial copies the history into dir, reopens it and restores
// the sessions (the timed set-up), then runs the open-loop generator
// and reader for warm-up plus window.
func forensicTrial(in *forensicInputs, base *forensicBase, dir string, window time.Duration,
	lats *forensicLats, sp *spanBuf, seg *segments, res *result) (*fleetTrial, error) {
	if err := copyDir(base.dir, dir); err != nil {
		return nil, err
	}
	span := forensicWarm + window
	events, queries := in.trial, in.queries
	for len(events) > 0 && time.Duration(events[len(events)-1].at-in.cut) >= span {
		events = events[:len(events)-1]
	}
	for len(queries) > 0 && queries[len(queries)-1].due >= span {
		queries = queries[:len(queries)-1]
	}

	heap0 := heapAfterGC()
	start := now()
	r, err := bootRig(dir, in.sessions, 1, sp, seg, func(i int, s *fleet.Session, pid int) ([]monitor.Decision, error) {
		if st := in.stamps[i]; st != 0 {
			if err := s.NotifyNanos(pid, st); err != nil {
				return nil, err
			}
		}
		return base.pending[i], nil
	})
	if err != nil {
		return nil, err
	}
	t := &fleetTrial{setup: since(start)}
	if rec := r.st.Recovery(); !rec.Clean {
		res.fail(1, "fleet-forensics: history recovery not clean: %s", rec.Reason)
	}

	var (
		wg                sync.WaitGroup
		genFails, qFails  workerFailures
		measured, offered uint64
		lastDone          time.Duration
		decisions, grants uint64
		recordsRead       int
		genLate           = newHist()
	)
	for _, ev := range events {
		if ev.op >= 0 {
			decisions++
			if ev.grant {
				grants++
			}
		}
		if time.Duration(ev.at-in.cut) >= forensicWarm {
			offered++
		}
	}
	opLat := newHist()
	w0, err := writeChars()
	if err != nil {
		return nil, err
	}
	appended0 := r.stats.Appends.Load()
	t.mem[0] = readMem()
	p := pacer{start: now().Add(10 * time.Millisecond)}
	wg.Add(2)
	go func() {
		defer wg.Done()
		ts := r.workers[0]
		for i := range events {
			ev := &events[i]
			due := time.Duration(ev.at - in.cut)
			late := p.wait(due)
			op := uint64(i)
			root := sp.begin(spOp, op, -1)
			err := r.exec(ev, ts, sp, op, root)
			sp.end(root)
			l := p.sinceDue(due)
			if err != nil {
				genFails.add(err, "event", i)
			}
			if due >= forensicWarm {
				opLat.recordDur(l)
				genLate.recordDur(late)
				measured++
			}
		}
		lastDone = since(p.start)
	}()
	go func() {
		defer wg.Done()
		var rec auditstore.Record
		for i, q := range queries {
			p.wait(q.due)
			op := uint64(i) | 1<<40
			root := sp.begin(spQuery, op, -1)
			s := now()
			c := sp.begin(spIter, op, root)
			it, err := r.st.Iter(q.query(in.cut + int64(q.due)))
			if err == nil {
				for it.Next(&rec) {
					recordsRead++
				}
			}
			sp.end(c)
			service := since(s)
			sp.end(root)
			l := p.sinceDue(q.due)
			if err != nil {
				qFails.add(err, "query", i)
			}
			if q.due >= forensicWarm {
				lats.query.recordDur(l)
				lats.kinds[q.kind].recordDur(service)
			}
		}
	}()
	wg.Wait()
	t.mem[1] = readMem()
	w1, err := writeChars()
	if err != nil {
		return nil, err
	}
	t.wchar, t.appended = w1-w0, r.stats.Appends.Load()-appended0
	t.ops = measured
	t.elapsed = lastDone - forensicWarm
	lats.late.merge(genLate)
	// The whole trial is one window: a stretch short enough to hold only
	// a compaction stall or two would vary with how many it caught.
	lats.op.add(t.ops, t.elapsed, opLat)
	genFails.mergeInto(res)
	qFails.mergeInto(res)
	res.attempted += uint64(len(events) + len(queries))
	if len(queries) > 0 && recordsRead == 0 {
		res.fail(1, "fleet-forensics: %d queries read no records", len(queries))
	}
	res.metrics["gen.offered_per_s"] = float64(offered) / window.Seconds()

	r.endWindow(t)
	r.flush()
	t.coldScan, err = checkQueries(r.st, dir, in.cut+int64(span), in.oracleSession, res)
	if err != nil {
		return nil, err
	}
	want := in.historyDecisions + int(decisions)
	if err := r.checkStore(dir, want, t, res, "fleet-forensics"); err != nil {
		return nil, err
	}
	res.failDiff(t.stats.Grants, grants, "fleet-forensics: grants")
	res.failDiff(t.stats.Denials, decisions-grants, "fleet-forensics: denials")
	t.heapDelta = int64(t.heap) - int64(heap0)
	return t, os.RemoveAll(dir)
}

// checkQueries asks every query kind once through Iter on the live
// store and once through ScanSegments on its files: the two must
// return the same records. It returns the mean cold-scan time.
func checkQueries(st *auditstore.FileStore, dir string, vnow int64, sess uint64, res *result) (time.Duration, error) {
	var cold time.Duration
	for k := queryKind(0); k < numQueryKinds; k++ {
		q := fquery{kind: k, sess: sess}.query(vnow)
		var live, files []auditstore.Record
		it, err := st.Iter(q)
		if err != nil {
			return 0, err
		}
		var rec auditstore.Record
		for it.Next(&rec) {
			live = append(live, rec)
		}
		start := now()
		_, err = auditstore.ScanSegments(dir, q, func(r auditstore.Record) bool {
			files = append(files, r)
			return true
		})
		cold += since(start)
		if err != nil {
			return 0, err
		}
		res.attempted++
		if i := firstDifference(live, files); i >= 0 {
			res.fail(1, "fleet-forensics: %s query: Iter and ScanSegments differ at record %d (%d vs %d records)",
				queryKindNames[k], i, len(live), len(files))
		}
	}
	return cold / time.Duration(numQueryKinds), nil
}

// firstDifference returns the index of the first record that differs
// between a and b, or -1 when they are equal.
func firstDifference(a, b []auditstore.Record) int {
	for i := range a {
		if i >= len(b) {
			return i
		}
		x, y := a[i], b[i]
		if x.Seq != y.Seq || !x.Time.Equal(y.Time) || x.Session != y.Session || x.PID != y.PID ||
			x.Op != y.Op || x.Verdict != y.Verdict || x.Reason != y.Reason ||
			!x.Stamp.Equal(y.Stamp) || x.Degraded != y.Degraded {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

func runFleetForensics(cfg config) (*result, error) {
	res := newResult("fleet-forensics")
	sessions, records := 2000, 200_000
	if cfg.small {
		sessions, records = 200, 5_000
	}
	window := time.Duration(cfg.seconds / forensicTrials * float64(time.Second))
	window = max(window, 100*time.Millisecond)
	in := newForensicInputs(cfg.seed, sessions, records, forensicWarm+window)
	base, err := buildHistory(in, filepath.Join(cfg.workDir, "forensics-history"), res)
	if err != nil {
		return nil, err
	}
	in.history = nil // executed; only its state at the cut is needed now
	dir := func(i int) string { return filepath.Join(cfg.workDir, fmt.Sprintf("forensics-%d", i)) }

	setKinds := func(lats *forensicLats) {
		for k, h := range lats.kinds {
			res.metrics["auditstore.query_"+queryKindNames[k]+"_p50_us"] = h.quantile(0.5) / 1e3
		}
		res.metrics["auditstore.query_reason_p99_us"] = lats.kinds[qReason].quantile(0.99) / 1e3
		res.metrics["query_p50_us"] = lats.query.quantile(0.50) / 1e3
		res.metrics["query_p99_us"] = lats.query.quantile(0.99) / 1e3
		res.metrics["gen.late_p50_us"] = lats.late.quantile(0.50) / 1e3
		res.metrics["gen.late_p99_us"] = lats.late.quantile(0.99) / 1e3
	}

	if cfg.traced {
		short := max(window/2, 100*time.Millisecond)
		plain := newForensicLats()
		t, err := forensicTrial(in, base, dir(0), short, plain, nil, nil, res)
		if err != nil {
			return nil, err
		}
		setStoreMetrics(res, t)
		res.metrics["monitor.evaluate_p50_ns"] = evaluateEvents(in.trial)
		setKinds(plain)
		res.metrics["auditstore.cold_scan_ms"] = float64(t.coldScan) / 1e6
		seg := &segments{}
		traced, ref := newForensicLats(), newForensicLats()
		ts, err := traceTrial(cfg, res.workload, func(sp *spanBuf) error {
			_, err := forensicTrial(in, base, dir(1), short, traced, sp, seg, res)
			return err
		})
		if err != nil {
			return nil, err
		}
		if _, err := forensicTrial(in, base, dir(2), short, ref, nil, nil, res); err != nil {
			return nil, err
		}
		res.metrics["auditstore.compactions"] = float64(seg.compactions.Load())
		setFleetTrace(res, ts, ref.op.all, traced.op.all)
		return res, nil
	}

	set := newTrialSet()
	lats := newForensicLats()
	for i := 0; i < forensicTrials; i++ {
		trialLats := newForensicLats()
		t, err := forensicTrial(in, base, dir(i), window, trialLats, nil, nil, res)
		if err != nil {
			return nil, err
		}
		set.add(t.setup, t.heap, trialLats.op)
		lats.merge(trialLats)
	}
	set.report(res)
	setKinds(lats)
	return res, nil
}
