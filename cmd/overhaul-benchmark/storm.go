package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"overhaul/internal/workload"
)

const (
	stormWorkers = 2 // nproc on the reference machine
	// stormTrialEvents is one trial's size. The store's cost per record
	// grows with its history, so the size is fixed and -seconds sets the
	// number of trials. 100k events is 390 rotations and 55 compactions,
	// and leaves few enough dirty pages that the kernel does not start
	// writing the trial's files back before they are deleted.
	stormTrialEvents = 100_000
	// stormRefRate is events/s at that size on the reference machine.
	stormRefRate = 140_000
	// stormExtraSetups is how many more rigs a run boots before each
	// trial only to time set-up, whose reported value is the median.
	stormExtraSetups = 1
)

// stormInputs are the first n events of the sessions' bot-storm
// streams in due order, split by session between the workers as
// bootRig splits the sessions.
type stormInputs struct {
	sessions int
	parts    [stormWorkers][]fleetEvent
}

func newStormInputs(seed int64, sessions, n int) *stormInputs {
	s := newScheduler(workload.BotStorm(), sessions, seed)
	in := &stormInputs{sessions: sessions}
	for i := 0; i < n; i++ {
		ev := s.next()
		w := workerOf(int(ev.sess), sessions, stormWorkers)
		in.parts[w] = append(in.parts[w], ev)
	}
	return in
}

// stormTrial boots a rig on an empty store in dir and runs every event
// closed-loop, pacing ignored, one goroutine per worker. The whole
// trial is one window of lat: the store's cost grows with its history,
// so parts of a trial are not alike.
func stormTrial(in *stormInputs, dir string, lat *windows, sp *spanBuf, seg *segments, res *result) (*fleetTrial, error) {
	heap0 := heapAfterGC()
	start := now()
	r, err := bootRig(dir, in.sessions, stormWorkers, sp, seg, nil)
	if err != nil {
		return nil, err
	}
	t := &fleetTrial{setup: since(start)}
	var lats [stormWorkers]*hist
	var fails [stormWorkers]workerFailures
	var decisions, grants uint64
	for w := range lats {
		lats[w] = newHist()
		for _, ev := range in.parts[w] {
			t.ops++
			if ev.op >= 0 {
				decisions++
				if ev.grant {
					grants++
				}
			}
		}
	}
	w0, err := writeChars()
	if err != nil {
		return nil, err
	}
	appended0 := r.stats.Appends.Load()
	t.mem[0] = readMem()
	begin := now()
	var wg sync.WaitGroup
	for w := 0; w < stormWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts, h, events := r.workers[w], lats[w], in.parts[w]
			for i := range events {
				op := uint64(i)*stormWorkers + uint64(w)
				root := sp.begin(spOp, op, -1)
				s := now()
				err := r.exec(&events[i], ts, sp, op, root)
				h.recordDur(since(s))
				sp.end(root)
				if err != nil {
					fails[w].add(err, "event", i)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := since(begin)
	t.mem[1] = readMem()
	w1, err := writeChars()
	if err != nil {
		return nil, err
	}
	t.wchar, t.appended = w1-w0, r.stats.Appends.Load()-appended0
	for w := range lats {
		if w > 0 {
			lats[0].merge(lats[w])
		}
		fails[w].mergeInto(res)
	}
	lat.add(t.ops, elapsed, lats[0])
	res.attempted += t.ops
	r.endWindow(t)
	if err := r.checkStore(dir, int(decisions), t, res, "fleet-storm"); err != nil {
		return nil, err
	}
	res.failDiff(t.stats.Grants, grants, "fleet-storm: grants")
	res.failDiff(t.stats.Denials, decisions-grants, "fleet-storm: denials")
	t.heapDelta = int64(t.heap) - int64(heap0)
	return t, os.RemoveAll(dir)
}

func runFleetStorm(cfg config) (*result, error) {
	res := newResult("fleet-storm")
	sessions := 1000
	if cfg.small {
		sessions = 100
	}
	perTrial, trials := stormTrialEvents, max(3, int(cfg.seconds*stormRefRate/stormTrialEvents+0.5))
	if cfg.small {
		perTrial = 2_000
	}
	dir := func(i int) string { return filepath.Join(cfg.workDir, fmt.Sprintf("storm-%d", i)) }

	if cfg.traced {
		// As for the desks: counters, then a traced trial, then the
		// untraced reference for the overhead.
		in := newStormInputs(cfg.seed, sessions, max(perTrial/2, 1))
		t, err := stormTrial(in, dir(0), newWindows(1), nil, nil, res)
		if err != nil {
			return nil, err
		}
		setStoreMetrics(res, t)
		res.metrics["monitor.evaluate_p50_ns"] = evaluateEvents(slices.Concat(in.parts[:]...))
		in = newStormInputs(cfg.seed, sessions, max(min(perTrial/2, cfg.spanCap/3), 1))
		seg := &segments{}
		tracedLat, ref := newWindows(1), newWindows(1)
		ts, err := traceTrial(cfg, res.workload, func(sp *spanBuf) error {
			_, err := stormTrial(in, dir(1), tracedLat, sp, seg, res)
			return err
		})
		if err != nil {
			return nil, err
		}
		if _, err := stormTrial(in, dir(2), ref, nil, nil, res); err != nil {
			return nil, err
		}
		res.metrics["auditstore.compactions"] = float64(seg.compactions.Load())
		setFleetTrace(res, ts, ref.all, tracedLat.all)
		return res, nil
	}

	in := newStormInputs(cfg.seed, sessions, perTrial)
	set := newTrialSet()
	for i := 0; i < trials; i++ {
		for j := 0; j < stormExtraSetups; j++ {
			setup, err := timeRigSetup(dir(trials), sessions)
			if err != nil {
				return nil, err
			}
			set.setup = append(set.setup, setup.Seconds())
		}
		lat := newWindows(1)
		t, err := stormTrial(in, dir(i), lat, nil, nil, res)
		if err != nil {
			return nil, err
		}
		set.add(t.setup, t.heap, lat)
	}
	set.report(res)
	return res, nil
}

// timeRigSetup boots a storm rig on an empty store in dir, as a trial
// does, and tears it down again.
func timeRigSetup(dir string, sessions int) (time.Duration, error) {
	runtime.GC()
	start := now()
	r, err := bootRig(dir, sessions, stormWorkers, nil, nil, nil)
	if err != nil {
		return 0, err
	}
	setup := since(start)
	if err := r.st.Close(); err != nil {
		return 0, err
	}
	return setup, os.RemoveAll(dir)
}

// setFleetTrace reports the per-call latencies, the self-time table
// and the tracing overhead of a traced fleet trial.
func setFleetTrace(res *result, ts *traceSummary, ref, traced *hist) {
	res.trace = ts
	res.samples = traced.count()
	setPercentiles(res, ts.durations[spDecide], []string{"fleet.decide_p50_ns", "fleet.decide_p99_ns"}, 1)
	setPercentiles(res, ts.durations[spNotify], []string{"fleet.notify_p50_ns"}, 1)
	res.metrics["trace.overhead_pct"] = 100 * (traced.mean()/ref.mean() - 1)
	res.metrics["trace.unattributed_pct"] = ts.unattributedPct
}
