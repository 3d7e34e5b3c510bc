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
// With -json the report is one JSON document, the Report struct: the
// run's shape and counts, the latency and lateness digests, and the
// mean inter-arrival time.
//
// With -store DIR every session's decisions additionally sink into a
// shared durable audit store through per-session batching sinks
// (auditstore.BatchSink → FileStore group commit). The store's
// group-commit bounds are exposed as -batch-records/-batch-bytes;
// -sink-batch sets how many decisions a session buffers before handing
// the store one batch. The report gains a store section (records/sec,
// batch-size histogram, dropped-ack count).
//
// The command checks its own report and exits non-zero when an
// invariant fails: the run generated events, and with -store the
// store committed records in batches its histogram accounts for, with
// no dropped acknowledgement.
package main

import (
	"container/heap"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-load:", err)
		os.Exit(1)
	}
}

// run parses args, runs the load, writes the report to stdout and then
// checks it: a report that fails its invariants is still written, so
// the failure can be read next to the numbers.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("overhaul-load", flag.ExitOnError)
	sessions := fs.Int("sessions", 1000, "number of concurrent sessions to boot")
	duration := fs.Duration("duration", 10*time.Second, "measured load duration")
	mixName := fs.String("mix", "poisson-desks", "traffic mix: poisson-desks, bot-storm, or spyware-heavy")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "generator workers (sessions are partitioned across them)")
	seed := fs.Int64("seed", 1, "base seed for the per-session traffic streams")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	storeDir := fs.String("store", "", "sink every decision into a durable audit store at this directory and report its throughput")
	batchRecords := fs.Int("batch-records", auditstore.DefaultBatchRecords, "store group-commit bound: records per durable batch")
	batchBytes := fs.Int("batch-bytes", auditstore.DefaultBatchBytes, "store group-commit bound: encoded bytes per durable batch")
	sinkBatch := fs.Int("sink-batch", 32, "decisions a session buffers before handing the store one batch")
	if err := fs.Parse(args); err != nil {
		return err
	}

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
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	} else {
		rep.print(stdout)
	}
	return rep.check()
}

// storeConfig is the optional durable-sink setup for a run.
type storeConfig struct {
	dir       string
	opts      auditstore.Options
	sinkBatch int
}

// Report is the outcome of one load run, and the -json document.
type Report struct {
	Mix      string `json:"mix"`
	Sessions int    `json:"sessions"`
	Workers  int    `json:"workers"`
	// Boot is how long booting every session took; Elapsed is the
	// measured load window.
	Boot      time.Duration `json:"boot_ns"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	Events    uint64        `json:"events"`
	Decisions uint64        `json:"decisions"`
	Notifies  uint64        `json:"notifications"`
	// Grants, Denials and DroppedAudit sum the sessions' counters.
	Grants       uint64 `json:"grants"`
	Denials      uint64 `json:"denials"`
	DroppedAudit uint64 `json:"dropped_audit"`
	// InterarrivalNs is the mean time between completions, in
	// nanoseconds: Elapsed / Events.
	InterarrivalNs float64 `json:"interarrival_ns"`
	// Latency runs from an event's scheduled arrival to its completion;
	// Lateness from its scheduled arrival to its send, the generator's
	// own delay.
	Latency  telemetry.LatencySummary `json:"latency"`
	Lateness telemetry.LatencySummary `json:"lateness"`
	// Store is nil without -store.
	Store *StoreReport `json:"store,omitempty"`
}

// StoreReport is what the durable sink did during the run.
type StoreReport struct {
	Records       int     `json:"records"`
	RecordsPerSec float64 `json:"records_per_sec"`
	// Elapsed is the load window plus Flush, the sinks' final flush.
	Elapsed   time.Duration     `json:"elapsed_ns"`
	Flush     time.Duration     `json:"flush_ns"`
	Batches   uint64            `json:"batches"`
	MaxBatch  int               `json:"max_batch"`
	BatchHist map[string]uint64 `json:"batch_size_hist"`
	// DroppedAcks counts records a sink handed over that never became
	// durable.
	DroppedAcks uint64 `json:"dropped_acks"`
}

// check verifies the report's invariants. With a store, a dropped ack
// is a decision the fleet audited that never became durable, which the
// group-commit ack contract forbids outside injected faults.
func (r *Report) check() error {
	if r.Events == 0 {
		return errors.New("report: no events generated")
	}
	s := r.Store
	if s == nil {
		return nil
	}
	if s.Records <= 0 || s.RecordsPerSec <= 0 {
		return fmt.Errorf("report: store has no throughput (%d records, %.1f records/sec)", s.Records, s.RecordsPerSec)
	}
	if s.Batches == 0 {
		return errors.New("report: store has records but zero batches")
	}
	var histSum uint64
	for _, n := range s.BatchHist {
		histSum += n
	}
	if histSum != s.Batches {
		return fmt.Errorf("report: store batch histogram sums to %d, want %d batches", histSum, s.Batches)
	}
	if s.DroppedAcks != 0 {
		return fmt.Errorf("report: store reports %d dropped acks, want 0 (acknowledged records must be durable)", s.DroppedAcks)
	}
	return nil
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
func generate(mix workload.FleetMix, sessions, workers int, duration time.Duration, seed int64, scfg *storeConfig) (*Report, error) {
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
		defer st.Close() // store close after the run's flush already counted failures
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

	lat, late := &telemetry.LatencyHist{}, &telemetry.LatencyHist{}
	rep := &Report{Mix: mix.Name, Sessions: sessions, Workers: workers, Boot: bootTime, Elapsed: elapsed}
	for w := 0; w < workers; w++ {
		lat.Merge(hists[w])
		late.Merge(lates[w])
		rep.Events += counts[w].events
		rep.Decisions += counts[w].decisions
		rep.Notifies += counts[w].notifies
	}
	rep.Latency, rep.Lateness = lat.Summary(), late.Summary()
	if rep.Events > 0 {
		rep.InterarrivalNs = float64(elapsed) / float64(rep.Events)
	}
	totals := f.StatsSnapshot()
	rep.Grants, rep.Denials, rep.DroppedAudit = totals.Grants, totals.Denials, totals.DroppedAudit
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
		stats := st.BatchStats()
		hist := make(map[string]uint64)
		for i, n := range stats.SizeHist {
			if n > 0 {
				hist[auditstore.BatchBucketLabel(i)] = n
			}
		}
		rep.Store = &StoreReport{
			Records:     records,
			Elapsed:     elapsed + flushTime,
			Flush:       flushTime,
			Batches:     stats.Batches,
			MaxBatch:    stats.MaxBatch,
			BatchHist:   hist,
			DroppedAcks: sinkStats.Errors.Load(),
		}
		if rep.Store.Elapsed > 0 {
			rep.Store.RecordsPerSec = float64(records) / rep.Store.Elapsed.Seconds()
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

// print renders the human report.
func (r *Report) print(w io.Writer) {
	fmt.Fprintf(w, "fleet load: mix=%s sessions=%d workers=%d\n", r.Mix, r.Sessions, r.Workers)
	fmt.Fprintf(w, "  boot: %d sessions in %v (%.0f sessions/sec)\n",
		r.Sessions, r.Boot.Round(time.Microsecond), float64(r.Sessions)/r.Boot.Seconds())
	fmt.Fprintf(w, "  ran %v: %d events (%d decisions, %d notifications), %.0f events/sec\n",
		r.Elapsed.Round(time.Millisecond), r.Events, r.Decisions, r.Notifies,
		float64(r.Events)/r.Elapsed.Seconds())
	fmt.Fprintf(w, "  decisions: %d grants, %d denials, %d audit drops\n",
		r.Grants, r.Denials, r.DroppedAudit)
	s := r.Latency
	fmt.Fprintf(w, "  latency (scheduled→done): p50=%v p90=%v p99=%v p999=%v max=%v\n",
		s.P50, s.P90, s.P99, s.P999, s.Max)
	fmt.Fprintf(w, "  generator lateness (scheduled→sent): p50=%v p99=%v\n", r.Lateness.P50, r.Lateness.P99)
	if sec := r.Store; sec != nil {
		fmt.Fprintf(w, "  durable store: %d records in %v (%.0f records/sec), %d batches (max %d), final flush %v\n",
			sec.Records, sec.Elapsed.Round(time.Millisecond), sec.RecordsPerSec,
			sec.Batches, sec.MaxBatch, sec.Flush.Round(time.Microsecond))
		fmt.Fprintf(w, "  batch sizes:")
		for i := range (auditstore.BatchStats{}).SizeHist {
			if n := sec.BatchHist[auditstore.BatchBucketLabel(i)]; n > 0 {
				fmt.Fprintf(w, " %s=%d", auditstore.BatchBucketLabel(i), n)
			}
		}
		fmt.Fprintf(w, "\n  dropped acks: %d\n", sec.DroppedAcks)
	}
}
