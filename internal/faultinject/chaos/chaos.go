// Package chaos runs seeded fault-injection campaigns against a fully
// assembled Overhaul system and checks its fail-closed invariants
// online.
//
// A Campaign is completely determined by its seed: the fault schedule
// comes from a seeded faultinject.Injector, the operation script from a
// second seeded generator, and time from a virtual clock — two runs of
// the same campaign produce byte-identical transcripts (fault events,
// decisions, audit records and alerts). After every step the runner
// asserts the two invariants the paper's security argument rests on,
// extended to component failure:
//
//  1. No grant without a fresh hardware-input stamp: every granted
//     decision in the audit log carries a non-zero stamp within δ of
//     the operation.
//  2. No silent denial: every mediated operation that failed left
//     evidence — a deny record in the audit log, or the distinct
//     "protection degraded" alert announcing that enforcement itself
//     is down.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"overhaul/internal/auditlog"
	"overhaul/internal/auditstore"
	"overhaul/internal/clock"
	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/faultinject"
	"overhaul/internal/fs"
	"overhaul/internal/ipc"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
	"overhaul/internal/xserver"
)

// DefaultSteps is the campaign length when none is given.
const DefaultSteps = 200

// Campaign describes one seeded chaos run.
type Campaign struct {
	// Seed determines the fault schedule and the operation script.
	Seed int64
	// Steps is the number of scripted operations. Zero selects
	// DefaultSteps.
	Steps int
	// Rules arm the fault injector. Nil runs a fault-free campaign
	// (the invariants must hold there too).
	Rules []faultinject.Rule
	// KillChannelAt, when positive, severs the kernel↔X netlink
	// connection before the given (1-based) step — the mid-session
	// channel-death scenario.
	KillChannelAt int
	// ReconnectAt, when positive, re-establishes the channel before
	// the given step (must be after KillChannelAt to matter).
	ReconnectAt int
	// Threshold is δ. Zero selects monitor.DefaultThreshold.
	Threshold time.Duration
	// StoreDir, when non-empty, attaches a durable audit store in that
	// directory: after every step the runner syncs the audit stream
	// into it, and any auditstore.* fault rules get a live store to
	// break. On a store fault the runner reopens (recovering the
	// CRC-verified prefix) and resumes; at the end of the run the store
	// must hold exactly the full audit stream — divergence is an
	// invariant violation.
	StoreDir string
	// StoreSegment is the store's segment size in records. Zero
	// selects a small campaign-friendly size (32) so rotation and
	// compaction actually happen within a default-length run.
	StoreSegment int
	// ProbeRing is the capacity of the campaign's observer probe ring
	// (a match-all probe attached to kernel.decide). Zero selects 1024;
	// small values force overflow under probe.ring reader-stall faults,
	// which must only ever increment the drop counter — never block or
	// perturb a decision.
	ProbeRing int
}

// Violation is one invariant breach found by the online checker.
type Violation struct {
	Step      int    `json:"step"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Result is the deterministic outcome of a campaign.
type Result struct {
	Seed       int64         `json:"seed"`
	Steps      int           `json:"steps"`
	Events     []string      `json:"events"`
	Schedule   string        `json:"schedule"`
	AuditLines []string      `json:"audit"`
	AlertLines []string      `json:"alerts"`
	Violations []Violation   `json:"violations"`
	Monitor    monitor.Stats `json:"monitor_stats"`
	Kernel     kernel.Stats  `json:"kernel_stats"`
	X          xserver.Stats `json:"x_stats"`
	Degraded   bool          `json:"degraded"`
	// Flight holds the JSONL lines of the campaign's last flight-
	// recorder dump — the black-box snapshot taken at the final denial,
	// degradation, or invariant violation. Empty when nothing tripped.
	Flight []string `json:"flight,omitempty"`
	// FlightDumps counts every dump taken across the campaign,
	// including those evicted to keep the recorder's DumpCapacity.
	FlightDumps int `json:"flight_dumps"`
	// StoreRecords is the durable store's final record count (0 when
	// no StoreDir was set); StoreFaults counts injected store failures
	// and StoreReopens the recoveries that followed.
	StoreRecords int `json:"store_records,omitempty"`
	StoreFaults  int `json:"store_faults,omitempty"`
	StoreReopens int `json:"store_reopens,omitempty"`
	// Probe accounting for the campaign's kernel.decide observer probe:
	// events matched at the hook, consumed by the batched reader,
	// dropped on ring overflow, and reader stalls injected.
	ProbeMatched uint64 `json:"probe_matched"`
	ProbeRead    uint64 `json:"probe_read"`
	ProbeDropped uint64 `json:"probe_dropped"`
	ProbeStalls  uint64 `json:"probe_stalls"`
}

// Ok reports whether every invariant held.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// Transcript renders the full deterministic record of the run; two
// runs with the same campaign must produce byte-identical transcripts.
func (r *Result) Transcript() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("chaos campaign seed=%d steps=%d\n", r.Seed, r.Steps))
	b.WriteString("== events ==\n")
	for _, e := range r.Events {
		b.WriteString(e + "\n")
	}
	b.WriteString("== fault schedule ==\n")
	b.WriteString(r.Schedule)
	b.WriteString("== audit ==\n")
	for _, l := range r.AuditLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("== alerts ==\n")
	for _, l := range r.AlertLines {
		b.WriteString(l + "\n")
	}
	b.WriteString("== violations ==\n")
	for _, v := range r.Violations {
		b.WriteString(fmt.Sprintf("step %d [%s]: %s\n", v.Step, v.Invariant, v.Detail))
	}
	b.WriteString("== flight ==\n")
	for _, l := range r.Flight {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// runner carries the campaign's live state.
type runner struct {
	c         Campaign
	threshold time.Duration
	sys       *core.System
	inj       *faultinject.Injector
	rng       *rand.Rand
	armed     bool
	mic, cam  string
	apps      []*core.App
	shmA      *ipc.Mapping
	shmB      *ipc.Mapping
	scanners  []string
	tel       *telemetry.Recorder
	violated  *probe.Hook // system.degrade: where violations trip the recorder
	res       *Result
	store     *auditstore.FileStore
	tail      *auditstore.Tail

	// The observer probe: a match-all predicate on kernel.decide whose
	// ring is drained once per step. Its fault injector is a SEPARATE
	// seeded stream from the main one, so probe.ring reader stalls
	// consume no randomness from the fault schedule the system under
	// test sees — a probed and an unprobed campaign with the same seed
	// make byte-identical decisions.
	probeInj  *faultinject.Injector
	probeRing *probe.Ring
	probeObs  *probe.Probe
	probeBuf  []probe.Event
	probeRead uint64
}

// hook gates the injector behind r.armed so that the setup and the
// end-of-run probes run fault-free; only scripted steps inject. The
// campaign is single-goroutine, so the flag needs no lock.
func (r *runner) hook() faultinject.Hook {
	return func(p faultinject.Point) faultinject.Fault {
		if !r.armed {
			return faultinject.Fault{Point: p}
		}
		return r.inj.Eval(p)
	}
}

func (r *runner) event(step int, format string, args ...any) {
	prefix := fmt.Sprintf("step %03d ", step)
	if step == 0 {
		prefix = "setup    "
	}
	r.res.Events = append(r.res.Events, prefix+fmt.Sprintf(format, args...))
}

func (r *runner) violate(step int, invariant, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	r.res.Violations = append(r.res.Violations, Violation{
		Step:      step,
		Invariant: invariant,
		Detail:    detail,
	})
	// An invariant breach is exactly what the flight recorder exists
	// for: it trips a dump of the recent-event ring at the moment of
	// violation.
	if r.violated.Wants(0) {
		r.violated.Emit(&probe.Event{Kind: probe.KindDegrade, Detail: "chaos",
			Reason: "invariant violation [" + invariant + "]: " + detail})
	}
}

// Run executes the campaign and returns its deterministic result. The
// returned error covers only harness failures (bad rules, boot
// failure); invariant breaches are reported in Result.Violations.
func Run(c Campaign) (*Result, error) {
	r, err := run(c)
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// run executes the campaign and returns the finished runner, whose
// system and recorder the package's tests inspect.
func run(c Campaign) (*runner, error) {
	if c.Steps <= 0 {
		c.Steps = DefaultSteps
	}
	// probe.ring rules drive the observer's reader stalls and are
	// evaluated on their own injector stream; everything else feeds the
	// system under test. The partition keeps the main fault schedule —
	// and therefore every decision — independent of whether a probe is
	// watching.
	var mainRules, probeRules []faultinject.Rule
	for _, rule := range c.Rules {
		if rule.Point == faultinject.PointProbeRing {
			probeRules = append(probeRules, rule)
		} else {
			mainRules = append(mainRules, rule)
		}
	}
	inj, err := faultinject.New(c.Seed, mainRules...)
	if err != nil {
		return nil, err
	}
	probeInj, err := faultinject.New(c.Seed^0x9b0be5eed, probeRules...)
	if err != nil {
		return nil, err
	}
	clk := clock.NewSimulated()
	inj.SetClock(clk)

	threshold := c.Threshold
	if threshold == 0 {
		threshold = monitor.DefaultThreshold
	}

	r := &runner{
		c:         c,
		threshold: threshold,
		inj:       inj,
		probeInj:  probeInj,
		// The recorder rides the campaign's virtual clock, so its
		// output — like the rest of the transcript — is a pure function
		// of the seed.
		tel: telemetry.New(clk),
		// A distinct stream from the injector's: faults and script are
		// independent dimensions of the same seed.
		rng: rand.New(rand.NewSource(c.Seed ^ 0x5eed0fca0515)),
		res: &Result{Seed: c.Seed, Steps: c.Steps},
	}

	reg := probe.NewRegistry()
	sys, err := core.Boot(core.Options{
		Clock:       clk,
		Enforce:     true,
		Threshold:   c.Threshold,
		AlertSecret: "chaos-cat",
		FaultHook:   r.hook(),
		Telemetry:   r.tel,
		Probes:      reg,
		// Large enough that the checker never loses records to ring
		// eviction mid-campaign.
		AuditCapacity: 1 << 16,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: boot: %w", err)
	}
	r.sys = sys
	r.violated = reg.Hook(probe.HookDegrade)

	// The observer probe sees every decision record the audit log
	// sees; the end-of-run check asserts the two streams never
	// diverge in count, whatever faults the ring reader ate.
	ringCap := c.ProbeRing
	if ringCap == 0 {
		ringCap = 1024
	}
	r.probeRing = probe.NewRing(ringCap)
	r.probeRing.SetFaultHook(func(p faultinject.Point) faultinject.Fault {
		if !r.armed {
			return faultinject.Fault{Point: p}
		}
		return r.probeInj.Eval(p)
	})
	r.probeBuf = make([]probe.Event, 256)
	if r.probeObs, err = reg.AttachSpec("hook=kernel.decide", r.probeRing); err != nil {
		return nil, fmt.Errorf("chaos: attach probe: %w", err)
	}

	if err := r.setup(); err != nil {
		return nil, err
	}
	if c.StoreDir != "" {
		segment := c.StoreSegment
		if segment == 0 {
			segment = 32 // small enough that a default run rotates and compacts
		}
		// The store shares the campaign hook, so auditstore.* rules
		// inject only during armed steps; Open itself never evaluates
		// fault points (recovery is fault-free by construction).
		st, err := auditstore.Open(c.StoreDir, auditstore.Options{
			SegmentRecords: segment, Hook: r.hook(),
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: open store: %w", err)
		}
		r.store = st
		if r.tail, err = auditstore.NewTail(st, 0); err != nil {
			return nil, fmt.Errorf("chaos: store tail: %w", err)
		}
	}

	r.armed = true
	for step := 1; step <= c.Steps; step++ {
		if step == c.KillChannelAt {
			_ = sys.DisconnectX()
			r.event(step, "kill-channel")
		}
		if step == c.ReconnectAt && c.ReconnectAt > c.KillChannelAt {
			if err := sys.ReconnectX(); err != nil {
				r.event(step, "reconnect-channel: %v", err)
			} else {
				r.event(step, "reconnect-channel")
			}
		}
		r.step(step)
		r.drainProbe()
		r.syncStore(step)
	}
	r.armed = false

	r.finish()
	r.finishStore()
	r.finishProbe()

	r.res.Schedule = inj.Schedule()
	for _, d := range sys.Audit() {
		r.res.AuditLines = append(r.res.AuditLines, auditlog.FormatDecision(d))
	}
	for _, a := range sys.X.AlertHistory() {
		r.res.AlertLines = append(r.res.AlertLines, formatAlert(a))
	}
	r.res.Monitor = sys.Kernel.Monitor().StatsSnapshot()
	r.res.Kernel = sys.Kernel.StatsSnapshot()
	r.res.X = sys.X.StatsSnapshot()
	_, r.res.Degraded = sys.Kernel.Monitor().DegradedReason()
	r.res.FlightDumps = int(r.tel.FlightTrips())
	if dump, ok := r.tel.LastFlightDump(); ok {
		if raw, err := dump.JSONL(); err == nil {
			r.res.Flight = strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		}
	}
	return r, nil
}

func formatAlert(a xserver.Alert) string {
	return fmt.Sprintf("%s alert pid=%d op=%s blocked=%v degraded=%v renderfailed=%v msg=%q",
		a.ShownAt.Format("15:04:05.000"),
		a.PID, a.Op, a.Blocked, a.Degraded, a.RenderFailed, a.Message)
}

// setup boots the fixed scenario: microphone and camera attached, two
// GUI applications launched and settled past the visibility threshold,
// and a shared-memory segment mapped into both.
func (r *runner) setup() error {
	sys := r.sys
	var err error
	if r.mic, err = sys.Helper.Attach(devfs.ClassMicrophone); err != nil {
		return fmt.Errorf("chaos: attach mic: %w", err)
	}
	if r.cam, err = sys.Helper.Attach(devfs.ClassCamera); err != nil {
		return fmt.Errorf("chaos: attach cam: %w", err)
	}
	for _, name := range []string{"alpha", "beta"} {
		app, err := sys.Launch(name)
		if err != nil {
			return fmt.Errorf("chaos: launch %s: %w", name, err)
		}
		r.apps = append(r.apps, app)
	}
	seg, err := sys.Kernel.ShmGet(1, 4)
	if err != nil {
		return fmt.Errorf("chaos: shmget: %w", err)
	}
	r.shmA = seg.Map(r.apps[0].Proc.PID())
	r.shmB = seg.Map(r.apps[1].Proc.PID())
	sys.Settle(1500 * time.Millisecond)
	r.event(0, "mic=%s cam=%s apps=alpha,beta", r.mic, r.cam)
	return nil
}

// step runs one scripted operation and then the invariant checks.
func (r *runner) step(step int) {
	app := r.apps[r.rng.Intn(len(r.apps))]
	before := len(r.sys.Audit())
	deniedOp := ""

	switch op := r.rng.Intn(10); op {
	case 0: // user clicks
		r.event(step, "click %s: %s", app.Client.Name(), outcome(app.Click()))
	case 1: // time passes
		d := time.Duration(100+r.rng.Intn(800)) * time.Millisecond
		r.sys.Settle(d)
		r.event(step, "advance %v", d)
	case 2, 3: // device opens
		path := r.mic
		if op == 3 {
			path = r.cam
		}
		h, err := app.OpenDevice(path)
		if err == nil {
			_ = h.Close()
		}
		if mediatedDenial(err) {
			deniedOp = fmt.Sprintf("open %s", path)
		}
		r.event(step, "open %s by %s: %s", path, app.Client.Name(), outcome(err))
	case 4: // clipboard copy
		err := app.Client.SetSelection("CLIPBOARD", app.Win)
		if errors.Is(err, xserver.ErrBadAccess) {
			deniedOp = "copy"
		}
		r.event(step, "copy by %s: %s", app.Client.Name(), outcome(err))
	case 5: // screen capture
		_, err := app.Client.GetImage(xserver.Root)
		if errors.Is(err, xserver.ErrBadAccess) {
			deniedOp = "capture"
		}
		r.event(step, "capture by %s: %s", app.Client.Name(), outcome(err))
	case 6: // shared-memory traffic (P2 propagation under timer faults)
		err := r.shmA.Write(0, []byte{byte(step)})
		if err == nil {
			_, err = r.shmB.Read(0, 1)
		}
		r.event(step, "shm traffic: %s", outcome(err))
	case 7: // fork + inherited-stamp device open (P1 under faults)
		child, err := app.Proc.Fork()
		if err != nil {
			r.event(step, "fork %s: %s", app.Client.Name(), outcome(err))
			break
		}
		h, err := r.sys.Kernel.Open(child, r.mic, fs.AccessRead)
		if err == nil {
			_ = h.Close()
		}
		if mediatedDenial(err) {
			deniedOp = "forked open"
		}
		r.event(step, "fork+open by %s: %s", app.Client.Name(), outcome(err))
		_ = child.Exit()
	case 8: // hotplug churn through the (crashable) trusted helper
		if p, err := r.sys.Helper.Attach(devfs.ClassScanner); err != nil {
			r.event(step, "attach scanner: %s", outcome(err))
		} else {
			r.scanners = append(r.scanners, p)
			r.event(step, "attach scanner: %s", p)
		}
		if n := len(r.scanners); n > 0 {
			p := r.scanners[n-1]
			if err := r.sys.Helper.Detach(p); err == nil {
				r.scanners = r.scanners[:n-1]
				r.event(step, "detach scanner %s: ok", p)
			} else {
				r.event(step, "detach scanner %s: %s", p, outcome(err))
			}
		}
	case 9: // helper restart (protocol recovery)
		if r.sys.Helper.Down() {
			err := r.sys.Helper.Restart()
			r.event(step, "helper restart: %s", outcome(err))
			if err == nil {
				r.checkHelperMap(step)
			}
		} else {
			r.event(step, "helper up")
		}
	}

	r.checkGrants(step, before)
	if deniedOp != "" {
		r.checkDenialEvidence(step, before, deniedOp)
	}
}

// outcome renders an operation result deterministically.
func outcome(err error) string {
	if err == nil {
		return "ok"
	}
	return "ERR " + err.Error()
}

// mediatedDenial reports whether err is the kernel refusing a
// sensitive-device open — by policy or by fail-closed conversion of an
// injected fault.
func mediatedDenial(err error) bool {
	return errors.Is(err, kernel.ErrAccessDenied) || errors.Is(err, kernel.ErrTransientIO)
}

// checkGrants asserts invariant 1 on every audit record the step
// appended: a grant must rest on a fresh hardware-input stamp.
func (r *runner) checkGrants(step, before int) {
	audit := r.sys.Audit()
	for _, d := range audit[min(before, len(audit)):] {
		if d.Verdict != monitor.VerdictGrant {
			continue
		}
		if d.Stamp.IsZero() {
			r.violate(step, "grant-without-stamp",
				"pid %d op %s granted with zero stamp (reason %q)", d.PID, d.Op, d.Reason)
			continue
		}
		if d.OpTime.Sub(d.Stamp) >= r.threshold {
			r.violate(step, "grant-stale-stamp",
				"pid %d op %s granted %v after stamp (δ=%v)", d.PID, d.Op, d.OpTime.Sub(d.Stamp), r.threshold)
		}
	}
}

// checkDenialEvidence asserts invariant 2 for a denial the script just
// observed: a deny audit record from this step, or the recorded
// protection-degraded alert.
func (r *runner) checkDenialEvidence(step, before int, what string) {
	audit := r.sys.Audit()
	for _, d := range audit[min(before, len(audit)):] {
		if d.Verdict == monitor.VerdictDeny {
			return
		}
	}
	for _, a := range r.sys.X.AlertHistory() {
		if a.Degraded {
			return
		}
	}
	r.violate(step, "silent-denial", "%s denied with no audit record and no degraded alert", what)
}

// checkHelperMap asserts that a successful helper restart preserved
// the kernel's device-class map for the fixed sensors.
func (r *runner) checkHelperMap(step int) {
	for _, want := range []struct {
		path  string
		class devfs.Class
	}{{r.mic, devfs.ClassMicrophone}, {r.cam, devfs.ClassCamera}} {
		if got, ok := r.sys.Kernel.SensitiveClassOf(want.path); !ok || got != want.class {
			r.violate(step, "helper-map-lost",
				"after restart %s maps to (%q,%v), want %s", want.path, got, ok, want.class)
		}
	}
}

// finish runs the end-of-run assertions. After a mid-session channel
// kill (with no reconnect) the system must be visibly degraded: every
// device access denies, and the distinct protection-degraded alert is
// on record. After a reconnect the system must be healthy again.
func (r *runner) finish() {
	killed := r.c.KillChannelAt > 0 && r.c.KillChannelAt <= r.c.Steps
	reconnected := killed && r.c.ReconnectAt > r.c.KillChannelAt && r.c.ReconnectAt <= r.c.Steps
	step := r.c.Steps + 1

	if killed && !reconnected {
		// One more user interaction forces the channel loss to be
		// detected even if no call failed since the kill.
		_ = r.apps[0].Click()
		before := len(r.sys.Audit())
		for _, app := range r.apps {
			for _, path := range []string{r.mic, r.cam} {
				h, err := app.OpenDevice(path)
				if err == nil {
					_ = h.Close()
					r.violate(step, "grant-after-channel-death",
						"pid %d opened %s with the channel dead", app.Proc.PID(), path)
				}
			}
		}
		r.checkGrants(step, before)
		degradedAlert := false
		for _, a := range r.sys.X.AlertHistory() {
			if a.Degraded && strings.Contains(a.Message, "protection degraded") {
				degradedAlert = true
				break
			}
		}
		if !degradedAlert {
			r.violate(step, "missing-degraded-alert",
				"channel died at step %d but no protection-degraded alert was recorded", r.c.KillChannelAt)
		}
		if _, down := r.sys.Kernel.Monitor().DegradedReason(); !down {
			r.violate(step, "monitor-not-degraded",
				"channel dead but the monitor is not in degraded mode")
		}
		r.event(step, "post-kill probes done")
		return
	}

	if reconnected {
		if _, down := r.sys.Kernel.Monitor().DegradedReason(); down {
			r.violate(step, "degraded-after-reconnect",
				"channel reconnected at step %d but the monitor is still degraded", r.c.ReconnectAt)
		}
		before := len(r.sys.Audit())
		if err := r.apps[0].Click(); err == nil {
			r.sys.Settle(50 * time.Millisecond)
			if h, err := r.apps[0].OpenDevice(r.mic); err != nil {
				r.violate(step, "deny-after-reconnect",
					"fresh interaction after reconnect still denied: %v", err)
			} else {
				_ = h.Close()
			}
		}
		r.checkGrants(step, before)
		r.event(step, "post-reconnect probes done")
	}
}

// drainProbe batch-reads the observer ring after a step. An injected
// reader stall consumes nothing this step; the backlog (and any
// overflow drops it causes) is picked up on a later drain. The drain
// never blocks the system under test — that is the point.
func (r *runner) drainProbe() {
	for {
		n := r.probeRing.ReadBatch(r.probeBuf)
		if n == 0 {
			return
		}
		r.probeRead += uint64(n)
	}
}

// finishProbe runs the probe layer's end-of-run invariants, fault-free
// (armed is false, so the final drain cannot stall):
//
//  1. Accounting closes: every matched event was either read or
//     counted as an overflow drop — nothing vanished.
//  2. Probe ≡ audit: the observer matched exactly one event per audit
//     record. A stalled or overflowing ring loses events, never
//     decisions.
func (r *runner) finishProbe() {
	step := r.c.Steps + 1
	r.drainProbe()
	st := r.probeRing.Stats()
	matched := r.probeObs.Matched()
	r.res.ProbeMatched = matched
	r.res.ProbeRead = r.probeRead
	r.res.ProbeDropped = st.Dropped
	r.res.ProbeStalls = st.Stalls
	if r.probeRead != st.Published || st.Published+st.Dropped != matched {
		r.violate(step, "probe-accounting",
			"matched %d != published %d (read %d) + dropped %d",
			matched, st.Published, r.probeRead, st.Dropped)
	}
	if audit := r.sys.Audit(); matched != uint64(len(audit)) {
		r.violate(step, "probe-audit-divergence",
			"observer matched %d decide events, audit log has %d records", matched, len(audit))
	}
}

// syncStore tails the audit stream into the durable store after a
// step. An injected store fault fails the store closed; the runner
// reopens the directory — recovering the CRC-verified prefix — and
// resumes syncing from wherever recovery landed. A few attempts per
// step bound the work; any remaining lag is picked up next step.
func (r *runner) syncStore(step int) {
	if r.store == nil {
		return
	}
	audit := r.sys.Audit()
	for attempt := 0; attempt < 3; attempt++ {
		_, err := r.tail.Sync(audit)
		if err == nil {
			return
		}
		r.res.StoreFaults++
		r.event(step, "store fault: %v", err)
		if err := r.reopenStore(); err != nil {
			r.violate(step, "store-unrecoverable", "reopen after fault: %v", err)
			return
		}
		r.event(step, "store reopened: %d records recovered", r.store.Recovery().Records)
	}
}

// reopenStore closes the failed store and opens the directory again,
// re-anchoring the tail at the recovered prefix.
func (r *runner) reopenStore() error {
	if err := r.store.Close(); err != nil && !errors.Is(err, auditstore.ErrClosed) {
		return err
	}
	st, err := auditstore.Open(r.store.Dir(), auditstore.Options{
		SegmentRecords: r.storeSegment(), Hook: r.hook(),
	})
	if err != nil {
		return err
	}
	r.store = st
	r.res.StoreReopens++
	return r.tail.Rebind(st)
}

func (r *runner) storeSegment() int {
	if r.c.StoreSegment != 0 {
		return r.c.StoreSegment
	}
	return 32
}

// finishStore runs fault-free (armed is false): the final sync must
// succeed, and the store must then hold exactly the audit stream — the
// durable trail and the in-memory log cannot diverge.
func (r *runner) finishStore() {
	if r.store == nil {
		return
	}
	step := r.c.Steps + 1
	audit := r.sys.Audit()
	if _, err := r.tail.Sync(audit); err != nil {
		// The store may still be failed from the last armed fault.
		if rerr := r.reopenStore(); rerr != nil {
			r.violate(step, "store-unrecoverable", "final reopen: %v", rerr)
			return
		}
		if _, err := r.tail.Sync(audit); err != nil {
			r.violate(step, "store-divergence", "fault-free final sync failed: %v", err)
			return
		}
	}
	recs, err := auditstore.ScanAll(r.store, auditstore.Query{})
	if err != nil {
		r.violate(step, "store-divergence", "final scan: %v", err)
		return
	}
	r.res.StoreRecords = len(recs)
	if len(recs) != len(audit) {
		r.violate(step, "store-divergence",
			"store holds %d records, audit stream has %d", len(recs), len(audit))
		return
	}
	for i, rec := range recs {
		if rec.Decision() != audit[i] {
			r.violate(step, "store-divergence",
				"record %d diverged:\n store %+v\n audit %+v", i+1, rec.Decision(), audit[i])
			return
		}
	}
	if err := r.store.Close(); err != nil {
		r.violate(step, "store-divergence", "final close: %v", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
