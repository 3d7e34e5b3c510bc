// Package core assembles the complete Overhaul system — the paper's
// primary contribution.
//
// It wires together the simulated substrates exactly as §III–§IV
// describe: a kernel with the permission monitor and device mediation, a
// display server with the trusted input/output paths, a netlink channel
// between them that the kernel authenticates by introspecting the X
// server process, and the trusted devfs helper that keeps the sensitive
// device mapping current. The result is a System through which
// simulated applications, users, and malware interact; every Overhaul
// enforcement decision flows through the same seams as in the paper's
// prototype. As in the paper, the display server sends one interaction
// notification N_{A,t} per authentic input and the monitor keeps the
// newest stamp; every netlink call retries DefaultChannelRetries times
// before the channel is declared down.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/devfs"
	"overhaul/internal/faultinject"
	"overhaul/internal/fs"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/netlink"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
	"overhaul/internal/xserver"
)

// Well-known filesystem paths for the trusted binaries. The netlink
// authentication procedure checks connecting peers against these.
const (
	XServerPath     = "/usr/bin/Xorg"
	DevfsHelperPath = "/usr/sbin/overhaul-devd"
)

// netlink message vocabulary (the wire protocol between the display
// server and the kernel permission monitor).
type (
	// interactionMsg is N_{A,t}. Ctx carries the originating input
	// span's IDs across the channel exactly as the interaction
	// timestamp does, so the kernel-side trace links to the X-side one.
	interactionMsg struct {
		PID  int
		Time time.Time
		Ctx  probe.SpanContext
	}
	// queryMsg is Q_{A,t}; Ctx as in interactionMsg.
	queryMsg struct {
		PID  int
		Op   monitor.Op
		Time time.Time
		Ctx  probe.SpanContext
	}
	// queryReply is R_{A,t}.
	queryReply struct {
		Verdict monitor.Verdict
	}
	// alertMsg is V_{A,op}, kernel → display server.
	alertMsg monitor.AlertRequest
)

// The pools recycle the boxes the three messages are sent in. Passing
// a message by value through the `any` message parameter boxes it: one
// heap allocation per notification, query or alert. The hub is fully
// synchronous (Call and CallUser invoke handlers inline, including the
// duplicate-delivery fault), so a box is dead as soon as the call
// returns and can go straight back to its pool.
var (
	interactionMsgPool = sync.Pool{New: func() any { return new(interactionMsg) }}
	queryMsgPool       = sync.Pool{New: func() any { return new(queryMsg) }}
	alertMsgPool       = sync.Pool{New: func() any { return new(alertMsg) }}
)

// ErrUnknownMessage is returned by netlink handlers for unexpected
// payloads.
var ErrUnknownMessage = errors.New("core: unknown netlink message")

// Options configures the assembled system.
type Options struct {
	// Clock supplies time. Nil selects a fresh simulated clock.
	Clock clock.Clock
	// Threshold is δ. Zero selects monitor.DefaultThreshold (2 s).
	Threshold time.Duration
	// Enforce selects enforcement (true) or observe-only mode (false,
	// the unprotected baseline machine of §V-D).
	Enforce bool
	// ForceGrant is the Table I benchmark mode: every decision grants
	// but the whole decision path executes.
	ForceGrant bool
	// VisibilityThreshold gates interaction notifications in the
	// display server. Zero selects the server default (1 s).
	VisibilityThreshold time.Duration
	// AlertSecret is the user's visual shared secret.
	AlertSecret string
	// ShmWait overrides the shared-memory wait-list duration. Zero
	// selects ipc.DefaultShmWait (500 ms).
	ShmWait time.Duration
	// DisablePtraceGuard turns the ptrace permission guard off.
	DisablePtraceGuard bool
	// DeviceInitRounds forwards the simulated per-open driver cost to
	// the kernel (benchmarks only; zero disables).
	DeviceInitRounds int
	// WireWork forwards the simulated X transport cost to the display
	// server (benchmarks only; zero disables).
	WireWork int
	// StorageRounds forwards the simulated per-create storage cost to
	// the kernel (benchmarks only; zero disables).
	StorageRounds int
	// DisableXTest rejects XTest injection outright (the stricter
	// deployment variant §IV-A contemplates).
	DisableXTest bool
	// DisableP1 ablates fork-time stamp inheritance.
	DisableP1 bool
	// DisableP2 ablates IPC stamp propagation.
	DisableP2 bool
	// FaultHook, when non-nil, is threaded through every trust seam:
	// the netlink hub, the kernel, the devfs helper and the display
	// server all consult it at their named fault points. Chaos
	// campaigns pass a seeded faultinject.Injector hook here.
	FaultHook faultinject.Hook
	// AuditCapacity forwards the monitor's audit-ring size. Zero
	// selects the monitor default (1024). Chaos campaigns raise it so
	// the invariant checker never loses records to ring eviction.
	AuditCapacity int
	// Telemetry, when non-nil, is attached to the system's probe
	// registry (Probes, or a fresh one) and rebuilds metrics,
	// decision-path spans and the flight recorder from its events. Nil
	// leaves the hooks to Probes alone.
	Telemetry *telemetry.Recorder
	// Probes, when non-nil, arms the probe attach points across every
	// subsystem (kernel, monitor, xserver, netlink). Nil (the default)
	// leaves the system uninstrumented: each hook then costs a single
	// nil check.
	Probes *probe.Registry
}

// System is a booted Overhaul machine.
type System struct {
	Clock  clock.Clock
	FS     *fs.FS
	Kernel *kernel.Kernel
	X      *xserver.Server
	Helper *devfs.Helper

	hub         *netlink.Hub
	ch          *channel
	xConn       *netlink.Conn
	xProc       *kernel.Process
	userHandler netlink.Handler
	enforce     bool
	tel         *telemetry.Recorder
}

// xPolicy implements xserver.Policy by speaking the netlink protocol —
// the display server never touches kernel state directly. All calls go
// through the retrying channel wrapper, so transient faults are
// absorbed and persistent ones degrade the whole system closed.
type xPolicy struct {
	ch   *channel
	call *probe.Hook // netlink.call
}

var _ xserver.Policy = (*xPolicy)(nil)

// NotifyInteraction implements xserver.Policy. The netlink call gets
// its own span nested under the display server's notify span, and the
// span context rides the wire inside the message so the kernel-side
// monitor span links back here.
func (p *xPolicy) NotifyInteraction(ctx probe.SpanContext, pid int, t time.Time) error {
	sp := probe.Event{PID: int64(pid), Kind: probe.KindCall, Detail: "notify_call"}
	p.call.Begin(ctx, &sp)
	defer p.call.End(&sp)
	m := interactionMsgPool.Get().(*interactionMsg)
	*m = interactionMsg{PID: pid, Time: t, Ctx: sp.Ctx}
	_, err := p.ch.call(m)
	interactionMsgPool.Put(m)
	if err != nil && sp.Ctx.Valid() {
		sp.Reason = err.Error()
	}
	return err
}

// Query implements xserver.Policy.
func (p *xPolicy) Query(ctx probe.SpanContext, pid int, op monitor.Op, t time.Time) (monitor.Verdict, error) {
	sp := probe.Event{PID: int64(pid), Kind: probe.KindCall, Detail: "query_call"}
	p.call.Begin(ctx, &sp)
	defer p.call.End(&sp)
	m := queryMsgPool.Get().(*queryMsg)
	*m = queryMsg{PID: pid, Op: op, Time: t, Ctx: sp.Ctx}
	reply, err := p.ch.call(m)
	queryMsgPool.Put(m)
	if err != nil {
		if sp.Ctx.Valid() {
			sp.Reason = err.Error()
		}
		return monitor.VerdictDeny, err
	}
	r, ok := reply.(queryReply)
	if !ok {
		return monitor.VerdictDeny, fmt.Errorf("query reply %T: %w", reply, ErrUnknownMessage)
	}
	return r.Verdict, nil
}

// Boot assembles and starts an Overhaul system.
func Boot(opts Options) (*System, error) {
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewSimulated()
	}
	reg := opts.Probes
	if opts.Telemetry != nil && reg == nil {
		reg = probe.NewRegistry()
	}
	if err := opts.Telemetry.Attach(reg); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	fsys := fs.New(clk)

	// Install the trusted binaries so netlink peer authentication has
	// something to introspect.
	if err := fsys.MkdirAll("/usr/bin", 0o755, fs.Root); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := fsys.MkdirAll("/usr/sbin", 0o755, fs.Root); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	for _, p := range []string{XServerPath, DevfsHelperPath} {
		if err := fsys.WriteFile(p, []byte("ELF\x7f"), 0o755, fs.Root); err != nil {
			return nil, fmt.Errorf("core: install %s: %w", p, err)
		}
	}

	k, err := kernel.New(clk, fsys, kernel.Config{
		Monitor: monitor.Config{
			Threshold:     opts.Threshold,
			Enforce:       opts.Enforce,
			ForceGrant:    opts.ForceGrant,
			AuditCapacity: opts.AuditCapacity,
			Probes:        reg,
		},
		DisablePtraceGuard: opts.DisablePtraceGuard,
		DeviceInitRounds:   opts.DeviceInitRounds,
		StorageRounds:      opts.StorageRounds,
		DisableP1:          opts.DisableP1,
		DisableP2:          opts.DisableP2,
		FaultHook:          opts.FaultHook,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.ShmWait > 0 {
		k.SetShmWait(opts.ShmWait)
	}

	// The display server runs as a root-owned userspace process.
	xProc, err := k.Spawn(kernel.SpawnSpec{Name: "Xorg", Exe: XServerPath, Cred: fs.Root})
	if err != nil {
		return nil, fmt.Errorf("core: spawn X: %w", err)
	}

	// Netlink hub on the kernel side: peers must introspect as the X
	// server binary.
	hub, err := netlink.NewHub(netlink.AuthenticatorFunc(func(pid int) error {
		return k.AuthenticateTrustedBinary(pid, XServerPath)
	}))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	hub.SetFaultHook(opts.FaultHook)
	hub.SetProbes(reg)
	hub.SetKernelHandler(func(msg any) (any, error) {
		switch m := msg.(type) {
		case *interactionMsg:
			return nil, k.Monitor().NotifyCtx(m.Ctx, m.PID, m.Time)
		case *queryMsg:
			return queryReply{Verdict: k.Monitor().DecideCtx(m.Ctx, m.PID, m.Op, m.Time)}, nil
		default:
			return nil, fmt.Errorf("%w: %T", ErrUnknownMessage, msg)
		}
	})

	sys := &System{
		Clock:   clk,
		FS:      fsys,
		Kernel:  k,
		Helper:  nil,
		hub:     hub,
		xProc:   xProc,
		enforce: opts.Enforce,
		tel:     opts.Telemetry,
	}

	// The channel wrapper owns the retry/degradation policy for both
	// directions. When it declares the channel dead the monitor flips
	// into fail-closed degraded mode: with no working path to the
	// trusted input source, every sensitive access must deny.
	sys.ch = &channel{
		hub: hub,
		clk: clk,
		pid: xProc.PID(),
		onDown: func(reason string) {
			k.Monitor().SetDegraded(reason)
		},
	}

	// Connect the X server to the kernel. Its user handler receives
	// alert requests.
	var x *xserver.Server
	sys.userHandler = func(msg any) (any, error) {
		switch m := msg.(type) {
		case *alertMsg:
			// ShowAlert copies the request; the box stays owned by the
			// sender, which pools it after the synchronous call returns.
			x.ShowAlert(monitor.AlertRequest(*m))
			return nil, nil
		default:
			return nil, fmt.Errorf("%w: %T", ErrUnknownMessage, msg)
		}
	}
	conn, err := hub.Connect(xProc.PID(), sys.userHandler)
	if err != nil {
		return nil, fmt.Errorf("core: connect X to netlink: %w", err)
	}
	sys.xConn = conn
	sys.ch.reset(conn)

	call := reg.Hook(probe.HookNetlinkCall)
	var policy xserver.Policy
	if opts.Enforce || opts.ForceGrant {
		policy = &xPolicy{ch: sys.ch, call: call}
	}
	x, err = xserver.NewServer(clk, policy, xserver.Config{
		VisibilityThreshold: opts.VisibilityThreshold,
		AlertSecret:         opts.AlertSecret,
		WireWork:            opts.WireWork,
		DisableXTest:        opts.DisableXTest,
		FaultHook:           opts.FaultHook,
		Probes:              reg,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sys.X = x

	// Kernel-side alerts route to the display server over the channel.
	k.Monitor().SetAlertFunc(func(req monitor.AlertRequest) {
		// Failures only suppress the alert, never the already-granted
		// operation — but exhausting the channel's retries flips the
		// system into degraded mode, so *future* decisions deny.
		sp := probe.Event{PID: int64(req.PID), Kind: probe.KindCall, Detail: "alert_call"}
		call.Begin(req.Ctx, &sp)
		defer call.End(&sp)
		req.Ctx = sp.Ctx
		m := alertMsgPool.Get().(*alertMsg)
		*m = alertMsg(req)
		_, _ = sys.ch.callUser(m)
		alertMsgPool.Put(m)
	})

	// Start the trusted devfs helper and attach the standard sensors.
	helper, err := devfs.NewHelper(fsys, k)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	helper.SetFaultHook(opts.FaultHook)
	sys.Helper = helper

	return sys, nil
}

// BootDefault boots an enforcing system with a simulated clock and the
// paper's default parameters, with a microphone and camera attached.
// It returns the system and the device paths.
func BootDefault() (*System, string, string, error) {
	sys, err := Boot(Options{Enforce: true, AlertSecret: "tabby-cat"})
	if err != nil {
		return nil, "", "", err
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		return nil, "", "", fmt.Errorf("core: attach mic: %w", err)
	}
	cam, err := sys.Helper.Attach(devfs.ClassCamera)
	if err != nil {
		return nil, "", "", fmt.Errorf("core: attach cam: %w", err)
	}
	return sys, mic, cam, nil
}

// Enforcing reports whether the system blocks (true) or only observes.
func (s *System) Enforcing() bool { return s.enforce }

// Telemetry returns the system's telemetry recorder (nil when booted
// without one; every recorder reader is nil-safe).
func (s *System) Telemetry() *telemetry.Recorder { return s.tel }

// DisconnectX tears down the netlink connection between the display
// server and the kernel (failure injection: the system must fail
// closed — no notifications, no grants). The channel itself discovers
// the loss on its next call and degrades the monitor.
func (s *System) DisconnectX() error {
	return s.xConn.Close()
}

// ReconnectX re-establishes the netlink connection after an outage and
// lifts the degraded mode on both sides: the monitor resumes normal
// temporal-proximity decisions and the display server clears its
// protection-degraded banner state.
func (s *System) ReconnectX() error {
	// An outage declared after exhausted retries (rather than an
	// explicit DisconnectX) leaves the stale connection registered on
	// the hub; tear it down before re-establishing.
	if s.xConn != nil && s.hub.Connected(s.xProc.PID()) {
		_ = s.xConn.Close()
	}
	conn, err := s.hub.Connect(s.xProc.PID(), s.userHandler)
	if err != nil {
		return fmt.Errorf("core: reconnect X: %w", err)
	}
	s.xConn = conn
	s.ch.reset(conn)
	s.Kernel.Monitor().ClearDegraded()
	s.X.ClearDegraded()
	return nil
}

// ChannelDown reports whether the kernel↔X channel is currently
// declared dead.
func (s *System) ChannelDown() bool {
	return s.ch.conn.Load() == nil
}

// AttachDevice hotplugs a sensitive device through the trusted helper
// and returns its /dev path.
func (s *System) AttachDevice(class devfs.Class) (string, error) {
	return s.Helper.Attach(class)
}

// Audit returns a copy of the permission monitor's decision log.
func (s *System) Audit() []monitor.Decision {
	return s.Kernel.Monitor().Audit()
}

// ActiveAlerts returns the trusted-output alerts currently on screen.
func (s *System) ActiveAlerts() []xserver.Alert {
	return s.X.ActiveAlerts()
}

// XProcess returns the display server's kernel process.
func (s *System) XProcess() *kernel.Process { return s.xProc }

// Hub exposes the netlink hub (for diagnostics and adversarial tests).
func (s *System) Hub() *netlink.Hub { return s.hub }

// SimClock returns the system clock as a *clock.Simulated when it is
// one, for tests that drive time manually.
func (s *System) SimClock() (*clock.Simulated, bool) {
	c, ok := s.Clock.(*clock.Simulated)
	return c, ok
}
