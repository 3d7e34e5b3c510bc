// Package multiview runs the probe layer's libMicro-style multiview
// overhead report. Each micro benchmark exercises one probe-hooked hot
// path — monitor decide, monitor notify, kernel device open, netlink
// round trip, fleet dispatch, xserver input — and builds it three
// times side by side, one instance per instrumentation mode:
//
//   - off: no probe registry is wired in at all. Every hook pointer is
//     nil and Armed() is a nil check. This is the cost center a
//     deployment that never ships probes pays.
//   - idle: every attach point is armed with a probe scoped to a pid no
//     process has. Hook.Wants rejects every event on the attach set's
//     precomputed pid window, so no event is built, no predicate runs
//     and nothing publishes: this prices the first stage every armed
//     hook runs, the always-on tax of a pid-scoped live trace.
//   - match: a match-all probe publishes every event into a
//     batch-drained perf ring, with full telemetry recording enabled —
//     the maximum-observation configuration.
//
// Idle and match are each timed against off with internal/bench's
// paired chunk interleave: 64 chunks, the side that runs first
// alternating, and the medians of the per-chunk ratio and per-op delta
// reported, so host speed changes that last seconds hit both sides of
// every chunk alike. The off→idle medians are gated (BudgetPct and
// FloorNs); match is reported so the price of full tracing is visible
// but is deliberately not gated.
package multiview

import (
	"fmt"
	"runtime"
	"time"

	"overhaul/internal/bench"
	"overhaul/internal/clock"
	"overhaul/internal/devfs"
	"overhaul/internal/fleet"
	"overhaul/internal/fs"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/netlink"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
	"overhaul/internal/xserver"
)

// Mode is one instrumentation level of the multiview comparison.
type Mode int

// The three instrumentation levels.
const (
	ModeOff Mode = iota
	ModeIdle
	ModeMatch
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeIdle:
		return "idle"
	case ModeMatch:
		return "match"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// The measurement size and the gate.
const (
	// Ops is how many operations each side of a pairing runs: 64
	// chunks of 250.
	Ops = bench.Chunks * 250
	// BudgetPct and FloorNs are the off→idle gate: a benchmark fails
	// when its median per-chunk idle/off ratio is more than BudgetPct
	// percent above 1 and its median per-op delta exceeds FloorNs. The
	// floor absorbs scheduler noise on sub-100ns benchmarks.
	BudgetPct = 10.0
	FloorNs   = 10.0
)

// neverMatch is the attached-idle predicate: pid 2^40 is outside any
// simulated pid space, so every hook's pid window rejects every event
// in Hook.Wants.
const neverMatch = "pid=1099511627776"

// ringCap and drainEvery keep the match-mode ring ahead of the hottest
// benchmark (a kernel device open emits five events: the kernel.open
// and monitor.evaluate spans' begin and end, and kernel.decide).
// Publishing into a full ring takes the cheaper drop path, which would
// understate the match-mode cost.
const (
	ringCap    = 1 << 13
	drainEvery = 256
)

// allocRuns is how many untimed operations each mode's allocs/op is
// counted over.
const allocRuns = 1000

// instrument builds the probe registry for one (benchmark, mode)
// instance — nil in ModeOff, and in ModeMatch also feeding a telemetry
// recorder — and returns the ring the harness must drain (nil unless
// ModeMatch).
func instrument(m Mode) (*probe.Registry, *probe.Ring, error) {
	switch m {
	case ModeOff:
		return nil, nil, nil
	case ModeIdle:
		reg := probe.NewRegistry()
		if _, err := reg.AttachSpec(neverMatch, probe.NewRing(64)); err != nil {
			return nil, nil, err
		}
		return reg, nil, nil
	case ModeMatch:
		reg := probe.NewRegistry()
		ring := probe.NewRing(ringCap)
		if _, err := reg.AttachSpec("", ring); err != nil {
			return nil, nil, err
		}
		if err := telemetry.New(clock.NewSimulated()).Attach(reg); err != nil {
			return nil, nil, err
		}
		return reg, ring, nil
	}
	return nil, nil, fmt.Errorf("unknown mode %d", int(m))
}

// A benchmark builds a fresh subsystem instance around the given
// instrumentation and returns the operation to time. The loop index is
// passed in so an op can amortise queue maintenance (the xserver
// benchmark drains its client's event queue every 64 clicks, in every
// mode alike).
type benchmark struct {
	name  string
	setup func(reg *probe.Registry) (func(i int) error, error)
}

// benchmarks returns the multiview suite: one micro benchmark per
// probe-hooked subsystem hot path.
func benchmarks() []benchmark {
	return []benchmark{
		{"Decide", setupDecide},
		{"Notify", setupNotify},
		{"KernelOpen", setupKernelOpen},
		{"NetlinkCall", setupNetlinkCall},
		{"FleetDispatch", setupFleetDispatch},
		{"XServerInput", setupXServerInput},
	}
}

// stampTasks is a minimal TaskStore for the monitor-level benchmarks:
// one pid with a newest-wins interaction stamp.
type stampTasks struct {
	pid   int
	stamp time.Time
}

func (t *stampTasks) InteractionView(pid int) (time.Time, probe.SpanContext, bool, bool) {
	if pid != t.pid {
		return time.Time{}, probe.SpanContext{}, false, false
	}
	return t.stamp, probe.SpanContext{}, false, true
}

func (t *stampTasks) SetInteractionStampSpan(pid int, ts time.Time, _ probe.SpanContext) error {
	if pid == t.pid && ts.After(t.stamp) {
		t.stamp = ts
	}
	return nil
}

// setupDecide measures the monitor decision path: a within-δ grant,
// crossing the evaluate and decide attach points.
func setupDecide(reg *probe.Registry) (func(int) error, error) {
	clk := clock.NewSimulated()
	tasks := &stampTasks{pid: 7, stamp: clk.Now()}
	m, err := monitor.New(tasks, monitor.Config{Enforce: true, Probes: reg})
	if err != nil {
		return nil, err
	}
	opTime := clk.Now().Add(time.Millisecond)
	return func(int) error {
		_ = m.Decide(7, monitor.OpMic, opTime)
		return nil
	}, nil
}

// setupNotify measures the interaction-notification path (stamp
// write), crossing the monitor.notify attach point.
func setupNotify(reg *probe.Registry) (func(int) error, error) {
	clk := clock.NewSimulated()
	tasks := &stampTasks{pid: 7, stamp: clk.Now()}
	m, err := monitor.New(tasks, monitor.Config{Enforce: true, Probes: reg})
	if err != nil {
		return nil, err
	}
	stamp := clk.Now().Add(time.Millisecond)
	return func(int) error {
		return m.Notify(7, stamp)
	}, nil
}

// setupKernelOpen measures a sensitive device open end to end: devmap
// lookup, monitor decision (force-grant, as in Table I), fs open —
// crossing the kernel.open attach point plus the monitor's evaluate
// and decide.
func setupKernelOpen(reg *probe.Registry) (func(int) error, error) {
	clk := clock.NewSimulated()
	fsys := fs.New(clk)
	k, err := kernel.New(clk, fsys, kernel.Config{
		Monitor: monitor.Config{Enforce: true, ForceGrant: true, Probes: reg},
	})
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll("/dev/snd", 0o755, fs.Root); err != nil {
		return nil, err
	}
	const micPath = "/dev/snd/pcmC0D0c"
	if err := fsys.Mknod(micPath, "microphone", 0o666, fs.Root); err != nil {
		return nil, err
	}
	if err := k.UpdateMapping(micPath, devfs.ClassMicrophone); err != nil {
		return nil, err
	}
	proc, err := k.Spawn(kernel.SpawnSpec{Name: "multiview", Exe: "/usr/bin/multiview", Cred: fs.Cred{UID: 1000, GID: 1000}})
	if err != nil {
		return nil, err
	}
	return func(int) error {
		_, err := k.Open(proc, micPath, fs.AccessRead)
		return err
	}, nil
}

// setupNetlinkCall measures a userspace→kernel round trip on the
// netlink hub with an echo handler, crossing the netlink.recv attach
// point.
func setupNetlinkCall(reg *probe.Registry) (func(int) error, error) {
	hub, err := netlink.NewHub(netlink.AuthenticatorFunc(func(int) error { return nil }))
	if err != nil {
		return nil, err
	}
	hub.SetKernelHandler(func(msg any) (any, error) { return msg, nil })
	if reg != nil {
		hub.SetProbes(reg)
	}
	conn, err := hub.Connect(1, nil)
	if err != nil {
		return nil, err
	}
	msg := any(42)
	return func(int) error {
		_, err := conn.Call(msg)
		return err
	}, nil
}

// setupFleetDispatch measures the fleet ingress: session-table lookup
// plus a within-δ decide, crossing the fleet.dispatch attach point.
func setupFleetDispatch(reg *probe.Registry) (func(int) error, error) {
	f, err := fleet.New(fleet.Config{Probes: reg})
	if err != nil {
		return nil, err
	}
	s := f.CreateSession()
	pid, err := s.Spawn()
	if err != nil {
		return nil, err
	}
	const t0 = int64(1_000_000_000)
	if err := s.NotifyNanos(pid, t0); err != nil {
		return nil, err
	}
	req := fleet.Request{SessionID: s.ID(), Kind: fleet.RequestDecide, PID: pid, Op: monitor.OpMic, Time: t0 + 1}
	return func(int) error {
		_, err := f.Dispatch(req)
		return err
	}, nil
}

// setupXServerInput measures a hardware click delivered to a mapped
// window, crossing the xserver.input attach point. The client queue is
// drained every 64 clicks in every mode so queue growth stays bounded
// and its amortised append cost is identical across modes.
func setupXServerInput(reg *probe.Registry) (func(int) error, error) {
	clk := clock.NewSimulated()
	srv, err := xserver.NewServer(clk, nil, xserver.Config{Probes: reg})
	if err != nil {
		return nil, err
	}
	cl, err := srv.Connect(1, "multiview")
	if err != nil {
		return nil, err
	}
	id, err := cl.CreateWindow(0, 0, 200, 200)
	if err != nil {
		return nil, err
	}
	if err := cl.MapWindow(id); err != nil {
		return nil, err
	}
	return func(i int) error {
		srv.HardwareClick(10, 10)
		if i&63 == 63 {
			cl.DrainEvents()
		}
		return nil
	}, nil
}

// Run builds every benchmark in the three modes and times idle and
// match against off, Ops operations per side.
func Run() (*Report, error) { return run(Ops) }

// run is Run at a given operation count.
func run(ops int) (*Report, error) {
	rep := &Report{Ops: ops}
	for _, b := range benchmarks() {
		row, err := measure(b, ops)
		if err != nil {
			return nil, fmt.Errorf("multiview: %s: %w", b.name, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// measure builds b's off, idle and match instances and times idle and
// match against the same off instance.
func measure(b benchmark, ops int) (Row, error) {
	var sides [3]bench.Side
	var allocs [3]int64
	for m := range sides {
		op, err := instance(b, Mode(m))
		if err != nil {
			return Row{}, fmt.Errorf("mode=%s: %w", Mode(m), err)
		}
		sides[m] = bench.Side{Op: op}
	}
	idle, err := bench.Pair{Base: sides[ModeOff], Over: sides[ModeIdle]}.Time(ops)
	if err != nil {
		return Row{}, err
	}
	match, err := bench.Pair{Base: sides[ModeOff], Over: sides[ModeMatch]}.Time(ops)
	if err != nil {
		return Row{}, err
	}
	for m, s := range sides {
		if allocs[m], err = allocsPerOp(s.Op); err != nil {
			return Row{}, err
		}
	}
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(ops) }
	return Row{
		Name:        b.name,
		Off:         Measurement{NsPerOp: perOp(idle.Base), AllocsPerOp: allocs[ModeOff]},
		Idle:        Measurement{NsPerOp: perOp(idle.Over), AllocsPerOp: allocs[ModeIdle]},
		Match:       Measurement{NsPerOp: perOp(match.Over), AllocsPerOp: allocs[ModeMatch]},
		IdleRatio:   idle.Ratio,
		IdleDeltaNs: idle.DeltaNs,
		MatchRatio:  match.Ratio,
	}, nil
}

// instance builds b in mode m. In ModeMatch the returned op drains the
// ring every drainEvery operations, inside the timed work.
func instance(b benchmark, m Mode) (func(int) error, error) {
	reg, ring, err := instrument(m)
	if err != nil {
		return nil, err
	}
	op, err := b.setup(reg)
	if err != nil || ring == nil {
		return op, err
	}
	buf := make([]probe.Event, 1024)
	return func(i int) error {
		err := op(i)
		if i&(drainEvery-1) == drainEvery-1 {
			for ring.ReadBatch(buf) > 0 {
			}
		}
		return err
	}, nil
}

// allocsPerOp counts op's heap allocations over allocRuns untimed
// calls, rounded to the nearest whole allocation.
func allocsPerOp(op func(int) error) (int64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int64((after.Mallocs - before.Mallocs + allocRuns/2) / allocRuns), nil
}
