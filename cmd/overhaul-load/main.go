// Command overhaul-load drives a fleet of Overhaul sessions with
// open-loop traffic and reports sustained throughput and decision
// latency quantiles.
//
// Usage:
//
//	overhaul-load [-sessions n] [-duration d] [-mix name] [-workers n]
//	              [-seed n] [-json] [-store dir] [-batch-records n]
//	              [-batch-bytes n] [-sink-batch n]
//
// The generator is open-loop: every event has a scheduled arrival time
// drawn from the mix's arrival process before the run starts ticking,
// and latency is measured from that *scheduled* time to completion —
// never from when the generator got around to sending. A closed-loop
// generator silently self-throttles when the system under test slows
// down (coordinated omission); this one instead accumulates lateness
// into the reported quantiles, which is the honest number for "can one
// machine hold N desks". A worker sleeps only until sleepSlack before
// an arrival and yields the rest of the way, so a timer's wake-up
// lateness is not charged to the system; what lateness remains (send
// time minus due time) is reported as its own p50 and p99.
//
// Traffic mixes come from internal/workload: "poisson-desks"
// (independent interactive users), "bot-storm" (bursty automated
// probing, nearly all denials), and "spyware-heavy" (the §V-D stealer's
// poll cycle at fleet scale). Per-worker latency histograms are merged
// after the run, so recording never contends across workers.
//
// With -json the report is a map keyed like sub-benchmarks
// (BenchmarkFleetLoad/mix=…/sessions=…/metric=…) with ns_per_op
// values, the exact shape overhaul-benchjson -check validates — CI's
// fleet smoke job pipes one through it.
//
// With -store DIR every session's decisions additionally sink into a
// shared durable audit store through per-session batching sinks
// (auditstore.BatchSink → FileStore group commit). The store's
// group-commit bounds are exposed as -batch-records/-batch-bytes;
// -sink-batch sets how many decisions a session buffers before handing
// the store one batch. The report gains a throughput section
// (records/sec, batch-size histogram, dropped-ack count) and the -json
// output becomes the wrapped {"benchmarks": …, "store": …} shape,
// which overhaul-benchjson -check also validates — including that
// dropped_acks is zero.
package main

import (
	"container/heap"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/clock"
	"overhaul/internal/fleet"
	"overhaul/internal/monitor"
	"overhaul/internal/telemetry"
	"overhaul/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-load:", err)
		os.Exit(1)
	}
}

func run() error {
	sessions := flag.Int("sessions", 1000, "number of concurrent sessions to boot")
	duration := flag.Duration("duration", 10*time.Second, "measured load duration")
	mixName := flag.String("mix", "poisson-desks", "traffic mix: poisson-desks, bot-storm, or spyware-heavy")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "generator workers (sessions are partitioned across them)")
	seed := flag.Int64("seed", 1, "base seed for the per-session traffic streams")
	asJSON := flag.Bool("json", false, "emit the report as benchjson-compatible JSON")
	storeDir := flag.String("store", "", "sink every decision into a durable audit store at this directory and report its throughput")
	batchRecords := flag.Int("batch-records", auditstore.DefaultBatchRecords, "store group-commit bound: records per durable batch")
	batchBytes := flag.Int("batch-bytes", auditstore.DefaultBatchBytes, "store group-commit bound: encoded bytes per durable batch")
	sinkBatch := flag.Int("sink-batch", 32, "decisions a session buffers before handing the store one batch")
	flag.Parse()

	if *sessions <= 0 {
		return fmt.Errorf("need at least one session")
	}
	if *workers <= 0 {
		return fmt.Errorf("need at least one worker")
	}
	if *workers > *sessions {
		*workers = *sessions
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return err
	}
	var scfg *storeConfig
	if *storeDir != "" {
		scfg = &storeConfig{
			dir: *storeDir,
			opts: auditstore.Options{
				BatchRecords: *batchRecords,
				BatchBytes:   *batchBytes,
			},
			sinkBatch: *sinkBatch,
		}
	}

	rep, err := generate(mix, *sessions, *workers, *duration, *seed, scfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		bench := rep.benchEntries(mix.Name, *sessions)
		if rep.store != nil {
			// The wrapped shape: benchmarks plus the store throughput
			// section overhaul-benchjson -check validates.
			return enc.Encode(map[string]any{
				"benchmarks": bench,
				"store":      rep.store.section(),
			})
		}
		return enc.Encode(bench)
	}
	rep.print(os.Stdout, mix.Name, *sessions, *workers)
	return nil
}

// storeConfig is the optional durable-sink setup for a run.
type storeConfig struct {
	dir       string
	opts      auditstore.Options
	sinkBatch int
}

// storeReport is what the durable sink did during the run.
type storeReport struct {
	records     int
	elapsed     time.Duration
	flushTime   time.Duration
	stats       auditstore.BatchStats
	droppedAcks uint64
}

// StoreSection is the JSON throughput section, shared by name with
// overhaul-benchjson's validator.
type StoreSection struct {
	RecordsPerSec float64           `json:"records_per_sec"`
	Records       int               `json:"records"`
	Batches       uint64            `json:"batches"`
	MaxBatch      int               `json:"max_batch"`
	BatchHist     map[string]uint64 `json:"batch_size_hist"`
	DroppedAcks   uint64            `json:"dropped_acks"`
}

func (sr *storeReport) section() StoreSection {
	hist := make(map[string]uint64)
	for i, n := range sr.stats.SizeHist {
		if n > 0 {
			hist[auditstore.BatchBucketLabel(i)] = n
		}
	}
	sec := StoreSection{
		Records:     sr.records,
		Batches:     sr.stats.Batches,
		MaxBatch:    sr.stats.MaxBatch,
		BatchHist:   hist,
		DroppedAcks: sr.droppedAcks,
	}
	if sr.elapsed > 0 {
		sec.RecordsPerSec = float64(sr.records) / sr.elapsed.Seconds()
	}
	return sec
}

// report is the outcome of one load run.
type report struct {
	bootTime  time.Duration
	elapsed   time.Duration
	events    uint64
	decisions uint64
	notifies  uint64
	lat       *telemetry.LatencyHist
	late      *telemetry.LatencyHist // generator lateness: send time minus due time
	stats     fleet.FleetStats
	store     *storeReport // nil without -store
}

// loadSession is one session's generator-side state: its event stream
// and the already-drawn next event.
type loadSession struct {
	sess   *fleet.Session
	id     uint64
	pid    int
	stream *workload.MixStream
	next   workload.FleetEvent
	nextAt int64 // scheduled arrival, unix nanos
}

// sessionHeap orders a worker's sessions by next scheduled arrival.
type sessionHeap []*loadSession

func (h sessionHeap) Len() int           { return len(h) }
func (h sessionHeap) Less(i, j int) bool { return h[i].nextAt < h[j].nextAt }
func (h sessionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sessionHeap) Push(x any)        { *h = append(*h, x.(*loadSession)) }
func (h *sessionHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// generate boots the fleet, partitions sessions across workers, and
// runs the open-loop load for the configured duration.
func generate(mix workload.FleetMix, sessions, workers int, duration time.Duration, seed int64, scfg *storeConfig) (*report, error) {
	f, err := fleet.New(fleet.Config{Policy: monitor.Policy{Enforce: true}})
	if err != nil {
		return nil, err
	}

	var st *auditstore.FileStore
	var sinkStats auditstore.SinkStats
	var sinks []*auditstore.BatchSink
	if scfg != nil {
		st, err = auditstore.Open(scfg.dir, scfg.opts)
		if err != nil {
			return nil, err
		}
		defer st.Close() //overhaul:allow errdrop store close after the run's flush already counted failures
	}

	clk := clock.System{}
	booted := make([]*loadSession, sessions)
	bootStart := clk.Now()
	for i := range booted {
		s := f.CreateSession()
		pid, err := s.Spawn()
		if err != nil {
			return nil, err
		}
		if st != nil {
			bs := auditstore.NewBatchSink(st, s.ID(), scfg.sinkBatch, &sinkStats)
			s.SetAuditSink(bs.Sink())
			sinks = append(sinks, bs)
		}
		booted[i] = &loadSession{
			sess:   s,
			id:     s.ID(),
			pid:    pid,
			stream: mix.Stream(seed + int64(i)),
		}
	}
	bootTime := clk.Now().Sub(bootStart)

	start := clk.Now().Add(50 * time.Millisecond) // all workers start on one schedule origin
	deadline := start.Add(duration)

	// Partition round-robin and pre-draw each session's first arrival.
	parts := make([]sessionHeap, workers)
	for i, ls := range booted {
		ls.next = ls.stream.Next()
		ls.nextAt = start.UnixNano() + int64(ls.next.Gap)
		parts[i%workers] = append(parts[i%workers], ls)
	}

	hists := make([]*telemetry.LatencyHist, workers)
	lates := make([]*telemetry.LatencyHist, workers)
	counts := make([]struct{ events, decisions, notifies uint64 }, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		hists[w] = &telemetry.LatencyHist{}
		lates[w] = &telemetry.LatencyHist{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := parts[w]
			heap.Init(&h)
			hist, late := hists[w], lates[w]
			end := deadline.UnixNano()
			for len(h) > 0 {
				ls := h[0]
				if ls.nextAt >= end {
					break // every remaining arrival is past the deadline
				}
				// Open loop: wait for the scheduled arrival if we are
				// early; if we are late, fire immediately and let the
				// lateness land in the measured latency.
				late.Observe(waitUntil(clk, ls.nextAt))
				ev := ls.next
				var err error
				if ev.Notify {
					err = ls.sess.NotifyNanos(ls.pid, ls.nextAt)
					counts[w].notifies++
				} else {
					_, err = ls.sess.DecideNanos(ls.pid, ev.Op, ls.nextAt)
					counts[w].decisions++
				}
				if err != nil {
					// Lifecycle errors cannot happen here (the generator
					// owns its sessions); anything else is a bug worth
					// dying loudly for in a load tool.
					panic(err)
				}
				hist.Observe(time.Duration(clk.Now().UnixNano() - ls.nextAt))
				counts[w].events++
				ev2 := ls.stream.Next()
				ls.next = ev2
				ls.nextAt += int64(ev2.Gap)
				heap.Fix(&h, 0)
			}
		}(w)
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)
	if elapsed > duration {
		elapsed = duration // idle tail after the last pre-deadline arrival
	}

	rep := &report{bootTime: bootTime, elapsed: elapsed, lat: &telemetry.LatencyHist{},
		late: &telemetry.LatencyHist{}, stats: f.StatsSnapshot()}
	for w := 0; w < workers; w++ {
		rep.lat.Merge(hists[w])
		rep.late.Merge(lates[w])
		rep.events += counts[w].events
		rep.decisions += counts[w].decisions
		rep.notifies += counts[w].notifies
	}
	if st != nil {
		flushStart := clk.Now()
		for _, bs := range sinks {
			bs.Flush()
		}
		flushTime := clk.Now().Sub(flushStart)
		records, err := st.Count()
		if err != nil {
			return nil, err
		}
		rep.store = &storeReport{
			records:     records,
			elapsed:     elapsed + flushTime,
			flushTime:   flushTime,
			stats:       st.BatchStats(),
			droppedAcks: sinkStats.Errors.Load(),
		}
	}
	return rep, nil
}

// sleepSlack is how early a worker must be before it sleeps: a sleep
// wakes up late by tens of microseconds or more, so the last stretch
// before an arrival is spent yielding instead.
const sleepSlack = 2 * time.Millisecond

// waitUntil blocks until the unix-nanos instant due and returns how
// late the release was.
func waitUntil(clk clock.System, due int64) time.Duration {
	for {
		early := time.Duration(due - clk.Now().UnixNano())
		if early <= 0 {
			return -early
		}
		if early > sleepSlack {
			time.Sleep(early - sleepSlack) //overhaul:allow clockcheck open-loop pacing waits real wall time until the scheduled arrival
		} else {
			runtime.Gosched()
		}
	}
}

// benchEntry mirrors overhaul-benchjson's Entry.
type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchEntries renders the report as a benchjson-compatible map:
// latency quantiles, generator lateness quantiles and mean
// inter-completion time (1e9 / throughput), all in nanoseconds.
func (r *report) benchEntries(mix string, sessions int) map[string]benchEntry {
	prefix := fmt.Sprintf("BenchmarkFleetLoad/mix=%s/sessions=%d", mix, sessions)
	s, late := r.lat.Summary(), r.late.Summary()
	out := map[string]benchEntry{
		prefix + "/metric=p50":          {NsPerOp: nonZero(float64(s.P50))},
		prefix + "/metric=p99":          {NsPerOp: nonZero(float64(s.P99))},
		prefix + "/metric=p999":         {NsPerOp: nonZero(float64(s.P999))},
		prefix + "/metric=max":          {NsPerOp: nonZero(float64(s.Max))},
		prefix + "/metric=gen_late_p50": {NsPerOp: nonZero(float64(late.P50))},
		prefix + "/metric=gen_late_p99": {NsPerOp: nonZero(float64(late.P99))},
	}
	if r.events > 0 && r.elapsed > 0 {
		out[prefix+"/metric=interarrival"] = benchEntry{NsPerOp: float64(r.elapsed) / float64(r.events)}
	}
	return out
}

// nonZero clamps to 1ns: a sub-resolution quantile is still a valid
// measurement, and benchjson -check rejects non-positive ns/op.
func nonZero(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// print renders the human report.
func (r *report) print(w *os.File, mix string, sessions, workers int) {
	s := r.lat.Summary()
	fmt.Fprintf(w, "fleet load: mix=%s sessions=%d workers=%d\n", mix, sessions, workers)
	fmt.Fprintf(w, "  boot: %d sessions in %v (%.0f sessions/sec)\n",
		sessions, r.bootTime.Round(time.Microsecond), float64(sessions)/r.bootTime.Seconds())
	fmt.Fprintf(w, "  ran %v: %d events (%d decisions, %d notifications), %.0f events/sec\n",
		r.elapsed.Round(time.Millisecond), r.events, r.decisions, r.notifies,
		float64(r.events)/r.elapsed.Seconds())
	fmt.Fprintf(w, "  decisions: %d grants, %d denials, %d audit drops\n",
		r.stats.Grants, r.stats.Denials, r.stats.DroppedAudit)
	fmt.Fprintf(w, "  latency (scheduled→done): p50=%v p90=%v p99=%v p999=%v max=%v\n",
		s.P50, s.P90, s.P99, s.P999, s.Max)
	late := r.late.Summary()
	fmt.Fprintf(w, "  generator lateness (scheduled→sent): p50=%v p99=%v\n", late.P50, late.P99)
	if r.store != nil {
		sec := r.store.section()
		fmt.Fprintf(w, "  durable store: %d records in %v (%.0f records/sec), %d batches (max %d), final flush %v\n",
			sec.Records, r.store.elapsed.Round(time.Millisecond), sec.RecordsPerSec,
			sec.Batches, sec.MaxBatch, r.store.flushTime.Round(time.Microsecond))
		fmt.Fprintf(w, "  batch sizes:")
		for i := 0; i < len(r.store.stats.SizeHist); i++ {
			if n := r.store.stats.SizeHist[i]; n > 0 {
				fmt.Fprintf(w, " %s=%d", auditstore.BatchBucketLabel(i), n)
			}
		}
		fmt.Fprintf(w, "\n  dropped acks: %d\n", sec.DroppedAcks)
	}
}
