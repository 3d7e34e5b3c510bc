package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/fs"
	"overhaul/internal/ipc"
	"overhaul/internal/kernel"
	"overhaul/internal/malware"
	"overhaul/internal/monitor"
	"overhaul/internal/netlink"
	"overhaul/internal/telemetry"
	"overhaul/internal/xserver"
)

// deskVisibility is the display server's visibility threshold: input
// to a window counts only once it has been mapped this long. The
// server default (1 s) would make every set-up sleep a second.
const deskVisibility = time.Millisecond

// deskExtraSetups is how many more desks a run boots before each trial
// only to time set-up, whose reported value is the median of them all.
const deskExtraSetups = 3

// opKind is one step of a desk workload.
type opKind uint8

const (
	// kGrantChain: click → app reads its input → app writes a pipe →
	// audiod reads it → audiod opens the microphone → close.
	kGrantChain opKind = iota
	// kUserOpen: click → app reads its input → app opens the
	// microphone → close.
	kUserOpen
	kStealClipboard
	kStealScreen
	kStealAudio
)

// desk is one booted single-user machine and the processes a desk
// workload drives.
type desk struct {
	sys       *core.System
	mic       string
	app       *core.App
	appPID    int
	audiod    *kernel.Process
	audiodPID int
	pipe      *ipc.Pipe
	msg, buf  []byte
	spy       *malware.Spyware
}

var errNoInput = errors.New("click delivered no input event")

// bootDesk boots an enforcing machine on the system clock with a
// microphone and a windowed app. With spyware, the app also owns the
// clipboard and the stealer is installed; otherwise a headless audiod
// reads the app's pipe.
func bootDesk(tel *telemetry.Recorder, msg []byte, spyware bool) (*desk, error) {
	sys, err := core.Boot(core.Options{
		Clock:               clock.System{},
		Enforce:             true,
		VisibilityThreshold: deskVisibility,
		AlertSecret:         "overhaul-benchmark",
		Telemetry:           tel,
	})
	if err != nil {
		return nil, err
	}
	mic, err := sys.AttachDevice(devfs.ClassMicrophone)
	if err != nil {
		return nil, err
	}
	app, err := sys.Launch("recorder")
	if err != nil {
		return nil, err
	}
	d := &desk{sys: sys, mic: mic, app: app, appPID: app.Proc.PID(), msg: msg, buf: make([]byte, len(msg))}
	if !spyware {
		if d.audiod, err = sys.LaunchHeadless("audiod"); err != nil {
			return nil, err
		}
		d.audiodPID = d.audiod.PID()
		d.pipe = sys.Kernel.NewPipe()
	}
	sleep(deskVisibility)
	if spyware {
		// Taking the clipboard needs a preceding click, like a copy.
		if err := d.clickAndDrain(nil, 0, -1); err != nil {
			return nil, err
		}
		if err := app.Client.SetSelection("CLIPBOARD", app.Win); err != nil {
			return nil, err
		}
		if d.spy, err = malware.Install(sys, mic); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *desk) clickAndDrain(sp *spanBuf, op uint64, root int32) error {
	s := sp.begin(spClick, op, root)
	err := d.app.Click()
	sp.end(s)
	if err != nil {
		return err
	}
	s = sp.begin(spDrain, op, root)
	n := 0
	for {
		if _, ok := d.app.Client.NextEvent(); !ok {
			break
		}
		n++
	}
	sp.end(s)
	if n == 0 {
		return errNoInput
	}
	return nil
}

func (d *desk) openClose(p *kernel.Process, sp *spanBuf, op uint64, root int32) error {
	s := sp.begin(spOpenGrant, op, root)
	h, err := d.sys.Kernel.Open(p, d.mic, fs.AccessRead)
	sp.end(s)
	if err != nil {
		return err
	}
	s = sp.begin(spClose, op, root)
	err = h.Close()
	sp.end(s)
	return err
}

// runOp runs one op. Steals report nothing back: whether they were
// denied is checked from the counters at the end of the trial.
func (d *desk) runOp(k opKind, sp *spanBuf, op uint64, root int32) error {
	switch k {
	case kGrantChain:
		if err := d.clickAndDrain(sp, op, root); err != nil {
			return err
		}
		s := sp.begin(spPipe, op, root)
		_, err := d.pipe.Write(d.appPID, d.msg)
		if err == nil {
			_, err = d.pipe.Read(d.audiodPID, d.buf)
		}
		sp.end(s)
		if err != nil {
			return err
		}
		return d.openClose(d.audiod, sp, op, root)
	case kUserOpen:
		if err := d.clickAndDrain(sp, op, root); err != nil {
			return err
		}
		return d.openClose(d.app.Proc, sp, op, root)
	case kStealClipboard:
		s := sp.begin(spStealClipboard, op, root)
		d.spy.StealClipboard(nil)
		sp.end(s)
	case kStealScreen:
		s := sp.begin(spStealScreen, op, root)
		d.spy.StealScreen()
		sp.end(s)
	case kStealAudio:
		s := sp.begin(spOpenDeny, op, root)
		d.spy.StealAudio()
		sp.end(s)
	}
	return nil
}

// deskCounters are the public counters a desk trial differences.
type deskCounters struct {
	x       xserver.Stats
	nl      netlink.Stats
	mon     monitor.Stats
	dropped uint64
	tries   uint64
	stolen  uint64
}

func (d *desk) counters() deskCounters {
	c := deskCounters{
		x:       d.sys.X.StatsSnapshot(),
		nl:      d.sys.Hub().StatsSnapshot(),
		mon:     d.sys.Kernel.Monitor().StatsSnapshot(),
		dropped: d.sys.Kernel.Monitor().DroppedAudit(),
	}
	if d.spy != nil {
		rep := d.spy.Report()
		c.tries = uint64(rep.Clipboard.Tries + rep.Screen.Tries + rep.Audio.Tries)
		c.stolen = uint64(rep.TotalStolen())
	}
	return c
}

// sub returns the per-field difference c − o.
func (c deskCounters) sub(o deskCounters) deskCounters {
	return deskCounters{
		x: xserver.Stats{
			Notifications: c.x.Notifications - o.x.Notifications,
			Queries:       c.x.Queries - o.x.Queries,
			AlertsShown:   c.x.AlertsShown - o.x.AlertsShown,
			CaptureDenied: c.x.CaptureDenied - o.x.CaptureDenied,
		},
		nl: netlink.Stats{
			UserToKernel: c.nl.UserToKernel - o.nl.UserToKernel,
			KernelToUser: c.nl.KernelToUser - o.nl.KernelToUser,
		},
		mon: monitor.Stats{
			Grants:     c.mon.Grants - o.mon.Grants,
			Denials:    c.mon.Denials - o.mon.Denials,
			AlertsSent: c.mon.AlertsSent - o.mon.AlertsSent,
		},
		dropped: c.dropped - o.dropped,
		tries:   c.tries - o.tries,
		stolen:  c.stolen - o.stolen,
	}
}

// deskWorkload is one of the two desk workloads.
type deskWorkload struct {
	name       string
	telemetry  bool
	spyware    bool
	trials     int
	refRate    float64 // ops/s on the reference machine, sizes trials
	windows    int     // windows per trial
	spansPerOp int     // upper bound, sizes the traced trial
}

var (
	deskGrant = deskWorkload{name: "desk-grant", trials: 5, refRate: 600_000, windows: 40, spansPerOp: 6}
	deskSpy   = deskWorkload{name: "desk-spyware-observed", telemetry: true, spyware: true,
		trials: 5, refRate: 40_000, windows: 30, spansPerOp: 5}
)

// deskTrial is what one trial measured.
type deskTrial struct {
	setup    time.Duration
	ops      uint64
	heap     uint64
	mem      [2]memCounters
	counters deskCounters
	desk     *desk
}

// deskInputs are a desk workload's seeded inputs: the pipe payload and,
// for the spyware desk, the op sequence.
type deskInputs struct {
	msg []byte
	seq []opKind // nil: every op is kGrantChain
}

func (w deskWorkload) inputs(seed int64, n int) deskInputs {
	rng := rand.New(rand.NewSource(seed))
	in := deskInputs{msg: make([]byte, 32)}
	rng.Read(in.msg)
	if !w.spyware {
		return in
	}
	// One user op to three spyware polls, the polls in the stealer's
	// own order.
	polls := malware.PollOps()
	in.seq = make([]opKind, n)
	next := 0
	for i := range in.seq {
		if rng.Intn(4) == 0 {
			in.seq[i] = kUserOpen
			continue
		}
		switch polls[next%len(polls)] {
		case monitor.OpPaste:
			in.seq[i] = kStealClipboard
		case monitor.OpScreen:
			in.seq[i] = kStealScreen
		default:
			in.seq[i] = kStealAudio
		}
		next++
	}
	return in
}

func (w deskWorkload) boot(in deskInputs) (*desk, time.Duration, error) {
	var tel *telemetry.Recorder
	if w.telemetry {
		tel = telemetry.New(clock.System{})
	}
	runtime.GC()
	start := now()
	d, err := bootDesk(tel, in.msg, w.spyware)
	return d, since(start), err
}

// trial boots a desk, runs warm ops, then n measured ops, recording
// each measured op's latency into lat and, when sp is non-nil, its
// spans. Failed ops are counted in res.
func (w deskWorkload) trial(in deskInputs, warm, n int, lat *windows, sp *spanBuf, res *result) (*deskTrial, error) {
	d, setup, err := w.boot(in)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	kind := func(i int) opKind {
		if in.seq == nil {
			return kGrantChain
		}
		return in.seq[i%len(in.seq)]
	}
	for i := 0; i < warm; i++ {
		if err := d.runOp(kind(i), nil, 0, -1); err != nil {
			res.fail(1, "warm-up op %d: %v", i, err)
		}
	}
	t := &deskTrial{setup: setup, ops: uint64(n), desk: d}
	before := d.counters()
	t.mem[0] = readMem()
	lat.begin()
	for i := 0; i < n; i++ {
		op := uint64(i)
		root := sp.begin(spOp, op, -1)
		s := now()
		err := d.runOp(kind(warm+i), sp, op, root)
		lat.recordDur(since(s))
		sp.end(root)
		if err != nil {
			res.fail(1, "op %d: %v", i, err)
		}
	}
	lat.finish()
	t.mem[1] = readMem()
	t.counters = d.counters().sub(before)
	res.attempted += uint64(warm + n)
	w.check(t, res)
	t.heap = heapAfterGC()
	runtime.KeepAlive(d)
	return t, nil
}

// check applies the desk oracles to one trial's counter deltas.
func (w deskWorkload) check(t *deskTrial, res *result) {
	c := t.counters
	if !w.spyware {
		// Every op's open is a granted mic access, which must alert.
		res.failDiff(c.mon.AlertsSent, t.ops, w.name+": alerts sent")
		return
	}
	res.fail(c.stolen, "%s: spyware stole %d records", w.name, c.stolen)
	res.failDiff(c.mon.Denials, c.tries, w.name+": monitor denials vs spyware tries")
}

func runDesk(cfg config, w deskWorkload) (*result, error) {
	res := newResult(w.name)
	perTrial := cfg.trialOps(w.refRate, w.trials)
	warm := perTrial / 10
	in := w.inputs(cfg.seed, warm+perTrial)
	if cfg.traced {
		return w.traced(cfg, in, warm, perTrial, res)
	}

	set := newTrialSet()
	for i := 0; i < w.trials; i++ {
		for j := 0; j < deskExtraSetups; j++ {
			_, setup, err := w.boot(in)
			if err != nil {
				return nil, fmt.Errorf("%s: boot: %w", w.name, err)
			}
			set.setup = append(set.setup, setup.Seconds())
		}
		lat := newWindows(perTrial / w.windows)
		t, err := w.trial(in, warm, perTrial, lat, nil, res)
		if err != nil {
			return nil, err
		}
		set.add(t.setup, t.heap, lat)
	}
	set.report(res)
	return res, nil
}

// traced runs three shortened trials: an untraced one for the counters
// and allocations, a traced one for the per-call latencies and the
// self-time table, and an untraced one of the traced one's size as the
// reference for the tracing overhead. The reference runs last so that
// neither compared trial pays for the process warming up.
func (w deskWorkload) traced(cfg config, in deskInputs, warm, perTrial int, res *result) (*result, error) {
	n := max(perTrial/2, 1)
	t, err := w.trial(in, warm, n, newWindows(n), nil, res)
	if err != nil {
		return nil, err
	}
	c := t.counters
	ops := float64(t.ops)
	res.metrics["xserver.notifications_per_op"] = float64(c.x.Notifications) / ops
	res.metrics["xserver.queries_per_op"] = float64(c.x.Queries) / ops
	res.metrics["xserver.alerts_shown_per_op"] = float64(c.x.AlertsShown) / ops
	res.metrics["xserver.capture_denied_per_op"] = float64(c.x.CaptureDenied) / ops
	res.metrics["netlink.user_to_kernel_per_op"] = float64(c.nl.UserToKernel) / ops
	res.metrics["netlink.kernel_to_user_per_op"] = float64(c.nl.KernelToUser) / ops
	res.metrics["monitor.grants_per_op"] = float64(c.mon.Grants) / ops
	res.metrics["monitor.denials_per_op"] = float64(c.mon.Denials) / ops
	res.metrics["monitor.alerts_sent_per_op"] = float64(c.mon.AlertsSent) / ops
	res.metrics["monitor.audit_dropped"] = float64(c.dropped)
	res.setRuntime(t.mem[0], t.mem[1], t.ops)

	nt := min(n, cfg.spanCap/w.spansPerOp)
	tracedLat, ref := newWindows(nt), newWindows(nt)
	var tt *deskTrial
	ts, err := traceTrial(cfg, w.name, func(sp *spanBuf) (err error) {
		tt, err = w.trial(in, warm, nt, tracedLat, sp, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.trial(in, warm, nt, ref, nil, res); err != nil {
		return nil, err
	}
	res.trace = ts
	res.samples = tracedLat.all.count()
	for name, m := range map[spanName][]string{
		spClick:          {"xserver.click_p50_ns", "xserver.click_p99_ns"},
		spDrain:          {"xserver.input_drain_p50_ns"},
		spPipe:           {"ipc.pipe_hop_p50_ns"},
		spClose:          {"fs.close_p50_ns"},
		spOpenGrant:      {"kernel.open_grant_p50_ns", "kernel.open_grant_p99_ns"},
		spOpenDeny:       {"kernel.open_deny_p50_ns"},
		spStealClipboard: {"xserver.steal_clipboard_p50_ns"},
		spStealScreen:    {"xserver.steal_screen_p50_ns"},
	} {
		setPercentiles(res, ts.durations[name], m, 1)
	}
	res.metrics["trace.overhead_pct"] = 100 * (tracedLat.all.mean()/ref.all.mean() - 1)
	res.metrics["trace.unattributed_pct"] = ts.unattributedPct
	if err := tt.desk.seams(res); err != nil {
		return nil, err
	}
	return res, nil
}

// setPercentiles stores the p50 (and, given a second name, the p99) of
// h scaled by 1/div.
func setPercentiles(res *result, h *hist, names []string, div float64) {
	res.metrics[names[0]] = h.quantile(0.50) / div
	if len(names) > 1 {
		res.metrics[names[1]] = h.quantile(0.99) / div
	}
}

// seamReps is how many times each isolated seam is timed.
const seamReps = 20_000

// rttProbe is a message the display server's netlink handler rejects:
// the call measures the kernel→user hop and nothing behind it.
type rttProbe struct{}

// seams times the calls Table I compares and the decision rule on its
// own: an open of a device node the helper never registered (no
// mediation), a kernel→user netlink round trip, and Policy.Evaluate
// replayed on the trial's audited queries.
func (d *desk) seams(res *result) error {
	const raw = "/dev/bench-unmediated"
	if err := d.sys.FS.MkdirAll("/dev", 0o755, fs.Root); err != nil {
		return err
	}
	if err := d.sys.FS.Mknod(raw, string(devfs.ClassMicrophone), 0o666, fs.Root); err != nil {
		return err
	}
	open, rtt := newHist(), newHist()
	hub, xpid := d.sys.Hub(), d.sys.XProcess().PID()
	for i := 0; i < seamReps; i++ {
		s := now()
		h, err := d.sys.Kernel.Open(d.app.Proc, raw, fs.AccessRead)
		open.recordDur(since(s))
		if err != nil {
			res.fail(1, "unmediated open: %v", err)
		} else if err := h.Close(); err != nil {
			res.fail(1, "unmediated close: %v", err)
		}
		s = now()
		_, err = hub.CallUser(xpid, rttProbe{})
		rtt.recordDur(since(s))
		if !errors.Is(err, core.ErrUnknownMessage) {
			res.fail(1, "netlink probe: got %v, want %v", err, core.ErrUnknownMessage)
		}
	}
	res.attempted += 2 * seamReps
	res.metrics["kernel.open_unmediated_p50_ns"] = open.quantile(0.5)
	res.metrics["netlink.rtt_p50_ns"] = rtt.quantile(0.5)

	mon := d.sys.Kernel.Monitor()
	var qs []monitor.Query
	for _, dec := range mon.Audit() {
		qs = append(qs, monitor.Query{OpTime: dec.OpTime, Stamp: dec.Stamp, Exists: true})
	}
	res.metrics["monitor.evaluate_p50_ns"] = evaluateReplay(mon.Policy(), qs)
	return nil
}

// evaluateSink keeps the replayed verdicts alive.
var evaluateSink int

// evaluateReplay times Policy.Evaluate over qs and returns the median
// per-call time in ns. A single call is shorter than a clock read, so
// each sample is the mean over one pass through qs.
func evaluateReplay(pol monitor.Policy, qs []monitor.Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	h := newHist()
	passes := min(200, max(1, 2_000_000/len(qs)))
	for p := 0; p < passes; p++ {
		s := now()
		for _, q := range qs {
			v, _ := pol.Evaluate(q)
			evaluateSink += int(v)
		}
		// Picoseconds per call keep sub-ns resolution in the histogram.
		h.record(int64(since(s)) * 1000 / int64(len(qs)))
	}
	return h.quantile(0.5) / 1000
}
