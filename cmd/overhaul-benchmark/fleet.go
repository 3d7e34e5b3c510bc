package main

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/fleet"
	"overhaul/internal/monitor"
	"overhaul/internal/workload"
)

const (
	// fleetDelta is δ, passed to the fleet explicitly so the reference
	// replay and the system apply the same window.
	fleetDelta = 2 * time.Second
	// sinkLimit is the decisions a session buffers per store batch.
	sinkLimit = 32
	// virtualEpoch (2026-01-01T00:00:00Z) is where every fleet schedule
	// starts. Decisions carry virtual times, so verdicts and the stored
	// history do not depend on when or how fast the run went.
	virtualEpoch int64 = 1_767_225_600_000_000_000
)

var fleetOps = [...]monitor.Op{monitor.OpCopy, monitor.OpPaste, monitor.OpScreen, monitor.OpMic, monitor.OpCam, monitor.OpOther}

func fleetOpIndex(op monitor.Op) int8 {
	for i, o := range fleetOps {
		if o == op {
			return int8(i)
		}
	}
	panic("fleetOpIndex: op " + string(op) + " missing from fleetOps")
}

// fleetEvent is one scheduled session event with its reference
// verdict.
type fleetEvent struct {
	at    int64 // virtual due time, unix ns
	stamp int64 // the session's stamp when a decision is made, 0 = none
	sess  int32
	op    int8 // index into fleetOps; -1 for a notification
	grant bool
}

// fleetPolicy is the rule every fleet session applies.
var fleetPolicy = monitor.Policy{Enforce: true, Threshold: fleetDelta}

// evaluateEvents times Policy.Evaluate on the queries events make.
func evaluateEvents(events []fleetEvent) float64 {
	var qs []monitor.Query
	for _, ev := range events {
		if ev.op >= 0 {
			q := monitor.Query{OpTime: time.Unix(0, ev.at).UTC(), Exists: true}
			if ev.stamp != 0 {
				q.Stamp = time.Unix(0, ev.stamp).UTC()
			}
			qs = append(qs, q)
		}
	}
	return evaluateReplay(fleetPolicy, qs)
}

// cursor is one session's position in its stream.
type cursor struct {
	sess   int32
	stream *workload.MixStream
	next   workload.FleetEvent
	at     int64
}

type cursorHeap []*cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].sess < h[j].sess
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *cursorHeap) Pop() any     { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// scheduler merges the sessions' seeded streams in due order and
// replays the δ rule on them: a session with no stamp is denied;
// otherwise an op is granted iff it precedes the stamp or follows it by
// less than δ. Stamps only move forward, like the program's.
type scheduler struct {
	h         cursorHeap
	stamps    []int64 // newest notification per session, 0 = none
	decisions []int   // decisions per session so far
	flushed   int     // decisions that filled a whole sink batch
}

func newScheduler(mix workload.FleetMix, sessions int, seed int64) *scheduler {
	s := &scheduler{stamps: make([]int64, sessions), decisions: make([]int, sessions)}
	for i := 0; i < sessions; i++ {
		st := mix.Stream(seed + int64(i))
		ev := st.Next()
		s.h = append(s.h, &cursor{sess: int32(i), stream: st, next: ev, at: virtualEpoch + int64(ev.Gap)})
	}
	heap.Init(&s.h)
	return s
}

func (s *scheduler) peek() int64 { return s.h[0].at }

func (s *scheduler) next() fleetEvent {
	c := s.h[0]
	ev := fleetEvent{at: c.at, sess: c.sess, op: -1}
	if c.next.Notify {
		s.stamps[c.sess] = max(s.stamps[c.sess], c.at)
	} else {
		ev.op = fleetOpIndex(c.next.Op)
		st := s.stamps[c.sess]
		ev.stamp = st
		ev.grant = st != 0 && (c.at < st || c.at-st < int64(fleetDelta))
		s.decisions[c.sess]++
		if s.decisions[c.sess]%sinkLimit == 0 {
			s.flushed += sinkLimit
		}
	}
	c.next = c.stream.Next()
	c.at += int64(c.next.Gap)
	heap.Fix(&s.h, 0)
	return ev
}

// segments tracks sealed-segment drops seen after batches: each drop is
// a compaction.
type segments struct {
	last        atomic.Int64
	compactions atomic.Uint64
}

// timedStore times every AppendBatch a session sink makes. There is
// one per worker goroutine, so its histogram has a single writer and
// its spans nest under that worker's current decide span: the sink
// runs synchronously inside Decide.
type timedStore struct {
	*auditstore.FileStore
	lat    *hist
	sp     *spanBuf
	seg    *segments // nil: do not watch compactions
	op     uint64
	parent int32
}

func (t *timedStore) AppendBatch(recs []auditstore.Record) (uint64, error) {
	s := t.sp.begin(spAppendBatch, t.op, t.parent)
	start := now()
	seq, err := t.FileStore.AppendBatch(recs)
	t.lat.recordDur(since(start))
	t.sp.end(s)
	if t.seg != nil {
		sealed, _ := t.FileStore.SegmentCount()
		if prev := t.seg.last.Swap(int64(sealed)); int64(sealed) < prev {
			t.seg.compactions.Add(1)
		}
	}
	return seq, err
}

// rig is one booted fleet writing to one store.
type rig struct {
	st       *auditstore.FileStore
	f        *fleet.Fleet
	sessions []*fleet.Session
	sinks    []*auditstore.BatchSink
	pids     []int
	stats    auditstore.SinkStats
	workers  []*timedStore
}

// bootRig opens the store in dir and creates the sessions, each with a
// batching sink through its worker's timedStore. Sessions go to workers
// in contiguous blocks (worker ⌊i·workers/sessions⌋): sessions are
// allocated one after another, and round-robin would put neighbours in
// memory on different goroutines, whose counters then share cache
// lines by the luck of the allocation. restore, when non-nil, runs per
// session before its sink is attached and returns decisions to
// pre-load into the sink.
func bootRig(dir string, sessions, workers int, sp *spanBuf, seg *segments,
	restore func(i int, s *fleet.Session, pid int) ([]monitor.Decision, error)) (*rig, error) {
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		return nil, err
	}
	f, err := fleet.New(fleet.Config{Policy: fleetPolicy})
	if err != nil {
		return nil, errors.Join(err, st.Close())
	}
	r := &rig{st: st, f: f}
	for w := 0; w < workers; w++ {
		r.workers = append(r.workers, &timedStore{FileStore: st, lat: newHist(), sp: sp, seg: seg, parent: -1})
	}
	for i := 0; i < sessions; i++ {
		s := f.CreateSession()
		pid, err := s.Spawn()
		if err != nil {
			return nil, errors.Join(err, st.Close())
		}
		var pending []monitor.Decision
		if restore != nil {
			if pending, err = restore(i, s, pid); err != nil {
				return nil, errors.Join(err, st.Close())
			}
		}
		bs := auditstore.NewBatchSink(r.workers[workerOf(i, sessions, workers)], s.ID(), sinkLimit, &r.stats)
		sink := bs.Sink()
		for _, d := range pending {
			sink(d)
		}
		s.SetAuditSink(sink)
		r.sessions = append(r.sessions, s)
		r.sinks = append(r.sinks, bs)
		r.pids = append(r.pids, pid)
	}
	return r, nil
}

// workerOf is the worker session i of n belongs to.
func workerOf(i, n, workers int) int { return i * workers / n }

var errVerdict = errors.New("verdict differs from the reference replay")

// exec runs one event on its session; ts is the calling worker's store.
func (r *rig) exec(ev *fleetEvent, ts *timedStore, sp *spanBuf, op uint64, root int32) error {
	s, pid := r.sessions[ev.sess], r.pids[ev.sess]
	if ev.op < 0 {
		c := sp.begin(spNotify, op, root)
		err := s.NotifyNanos(pid, ev.at)
		sp.end(c)
		return err
	}
	c := sp.begin(spDecide, op, root)
	ts.op, ts.parent = op, c
	v, err := s.DecideNanos(pid, fleetOps[ev.op], ev.at)
	sp.end(c)
	if err != nil {
		return err
	}
	if (v == monitor.VerdictGrant) != ev.grant {
		return errVerdict
	}
	return nil
}

func (r *rig) flush() {
	for _, bs := range r.sinks {
		bs.Flush()
	}
}

func (r *rig) appendLatency() *hist {
	h := newHist()
	for _, w := range r.workers {
		h.merge(w.lat)
	}
	return h
}

// endWindow closes the measured window: it keeps the batch timings and
// counts so far and stops timing and tracing, so the batches the final
// flush cuts are left out.
func (r *rig) endWindow(t *fleetTrial) {
	t.appendLat = r.appendLatency()
	t.batches = r.st.BatchStats()
	for _, w := range r.workers {
		w.lat, w.sp, w.seg = newHist(), nil, nil
	}
}

// fleetTrial is what one fleet trial measured.
type fleetTrial struct {
	setup     time.Duration
	elapsed   time.Duration
	ops       uint64
	heap      uint64
	heapDelta int64
	records   int
	// droppedAcks counts records the sinks never got acknowledged.
	droppedAcks uint64
	mem         [2]memCounters
	wchar       uint64
	appended    uint64
	stats       fleet.FleetStats
	batches     auditstore.BatchStats
	diskBytes   int64
	reopen      time.Duration
	coldScan    time.Duration
	appendLat   *hist
	// evaluateNs is Policy.Evaluate's median time on the decisions
	// left in the session rings.
	evaluateNs float64
}

// checkStore flushes the sinks and applies the store oracles: no dropped
// acks, one record per decision, and a Close + Open that recovers the
// same records cleanly. It fills the trial's store measurements.
func (r *rig) checkStore(dir string, wantRecords int, t *fleetTrial, res *result, name string) error {
	r.flush()
	t.droppedAcks = r.stats.Errors.Load()
	res.fail(t.droppedAcks, "%s: %d dropped store acks", name, t.droppedAcks)
	n, err := r.st.Count()
	if err != nil {
		return err
	}
	res.failDiff(uint64(n), uint64(wantRecords), name+": store records")
	t.records = n
	t.stats = r.f.StatsSnapshot()
	t.batches = r.st.BatchStats()
	t.appendLat = r.appendLatency()
	if t.diskBytes, err = dirBytes(dir); err != nil {
		return err
	}
	t.heap = heapAfterGC()
	runtime.KeepAlive(r)

	start := now()
	if err := r.st.Close(); err != nil {
		return err
	}
	st, err := auditstore.Open(dir, auditstore.Options{})
	t.reopen = since(start)
	if err != nil {
		return err
	}
	defer st.Close() //overhaul:allow errdrop read-only reopen, checked through Count and Recovery
	if rec := st.Recovery(); !rec.Clean {
		res.fail(1, "%s: reopen not clean: %s", name, rec.Reason)
	}
	if m, err := st.Count(); err != nil || m != n {
		res.fail(1, "%s: reopen recovered %d records (%v), want %d", name, m, err, n)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close() //overhaul:allow errdrop read-only source
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}

// workerFailures collects one goroutine's failed ops; merged after the
// goroutines end.
type workerFailures struct {
	n     uint64
	first string
}

func (w *workerFailures) add(err error, what string, i int) {
	if w.n == 0 {
		w.first = fmt.Sprintf("%s %d: %v", what, i, err)
	}
	w.n++
}

func (w *workerFailures) mergeInto(res *result) {
	if w.n > 1 {
		w.first += fmt.Sprintf(" (and %d more)", w.n-1)
	}
	res.fail(w.n, "%s", w.first)
}

// setStoreMetrics reports what every fleet trial measures about the
// store from outside.
func setStoreMetrics(res *result, t *fleetTrial) {
	res.metrics["fleet.grants"] = float64(t.stats.Grants)
	res.metrics["fleet.denials"] = float64(t.stats.Denials)
	res.metrics["auditstore.records"] = float64(t.records)
	res.metrics["auditstore.dropped_acks"] = float64(t.droppedAcks)
	setPercentiles(res, t.appendLat, []string{"auditstore.append_batch_p50_us", "auditstore.append_batch_p99_us"}, 1e3)
	res.metrics["auditstore.append_batch_max_ms"] = float64(t.appendLat.max) / 1e6
	if t.batches.Batches > 0 {
		res.metrics["auditstore.records_per_batch"] = float64(t.batches.Records) / float64(t.batches.Batches)
	}
	if t.appended > 0 {
		res.metrics["auditstore.write_bytes_per_record"] = float64(t.wchar) / float64(t.appended)
	}
	if t.records > 0 {
		res.metrics["auditstore.disk_bytes_per_record"] = float64(t.diskBytes) / float64(t.records)
		res.metrics["auditstore.heap_bytes_per_record"] = float64(t.heapDelta) / float64(t.records)
	}
	res.metrics["auditstore.reopen_ms"] = float64(t.reopen) / 1e6
	res.setRuntime(t.mem[0], t.mem[1], t.ops)
}
