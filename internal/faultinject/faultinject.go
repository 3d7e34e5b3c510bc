// Package faultinject provides deterministic, seeded fault injection
// for the trust seams of the Overhaul system.
//
// The paper's security argument (§III, S1–S4) silently assumes the
// trusted components — the kernel permission monitor, the netlink
// channel, the devfs helper, the alert engine — never fail. A
// production deployment cannot assume that, and the repository's
// answer to component failure is pinned here: every seam must *fail
// closed* (a decision path that cannot complete denies; a broken
// channel blocks devices rather than unguarding them) and every
// degradation must be observable (a distinct alert, an audit record).
//
// The package is deliberately dependency-light: it knows nothing about
// the components it breaks. Components declare named fault Points at
// their seams and consult an injected Hook; the seeded Injector decides
// — deterministically, given the seed and the evaluation order — which
// evaluations actually inject. Campaigns driven by a virtual clock are
// therefore fully reproducible from their seed: the same seed yields a
// byte-identical fault schedule, decision log, and audit log (see
// internal/faultinject/chaos).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"overhaul/internal/clock"
)

// Point names one fault point at a trust seam. The constants below are
// the complete vocabulary; components evaluate exactly one point per
// seam crossing so schedules stay interpretable.
type Point string

// Fault points threaded through the system's trust seams.
const (
	// PointNetlinkUserToKernel covers userspace→kernel netlink
	// messages (interaction notifications, permission queries).
	// Injectable: drop, delay, duplicate.
	PointNetlinkUserToKernel Point = "netlink.user_to_kernel"
	// PointNetlinkKernelToUser covers kernel→userspace netlink
	// messages (alert requests). Injectable: drop, delay, duplicate.
	PointNetlinkKernelToUser Point = "netlink.kernel_to_user"
	// PointDevfsPush covers the trusted helper's mapping pushes to the
	// kernel. Injectable: error (push fails; the helper rolls the
	// device node back — an unmapped node must not exist).
	PointDevfsPush Point = "devfs.push_mapping"
	// PointDevfsCrash covers the helper process itself, evaluated
	// between protocol steps of Attach/Detach. Injectable: crash (the
	// helper dies mid-protocol and must be restarted).
	PointDevfsCrash Point = "devfs.helper_crash"
	// PointStampWrite covers interaction-stamp writes performed by the
	// IPC propagation protocol. Injectable: error (the write is lost;
	// the receiver keeps its older stamp — fail closed).
	PointStampWrite Point = "ipc.stamp_write"
	// PointShmTimer covers the shared-memory wait-list timer.
	// Injectable: error (timer misfire: the window is treated as
	// already expired, forcing an extra fault — never a skipped one).
	PointShmTimer Point = "ipc.shm_timer"
	// PointAlertRender covers the display server's alert overlay
	// renderer. Injectable: error (the alert cannot be drawn; it is
	// still recorded in the history with RenderFailed set).
	PointAlertRender Point = "xserver.alert_render"
	// PointKernelOpen covers the kernel's open(2) path. Injectable:
	// error (transient I/O error; sensitive-device opens additionally
	// record an audit denial so the failure is never silent).
	PointKernelOpen Point = "kernel.open"
	// PointStoreAppend covers the durable audit store's segment write.
	// Injectable: error (torn write: half the framed line reaches the
	// segment) and crash (the process dies before any byte lands).
	// Either way the store fails closed until reopened.
	PointStoreAppend Point = "auditstore.append"
	// PointStoreRotate covers segment rotation, evaluated at each
	// protocol window (before sealing the active segment; after the
	// seal, before the fresh segment exists). Injectable: crash.
	PointStoreRotate Point = "auditstore.rotate"
	// PointStoreBatch covers the audit store's group commit, evaluated
	// at each batch window (drained but not written; written but not
	// acknowledged). Injectable: error (torn mid-batch write: half the
	// batch buffer reaches the segment) and crash (pre-write: the whole
	// batch is lost; post-write: the batch is durable but its appenders
	// never see the acknowledgement). Either way the store fails closed
	// until reopened and no acknowledged record is ever lost.
	PointStoreBatch Point = "auditstore.batch"
	// PointProbeRing covers the probe perf-ring's batched reader.
	// Injectable: error (reader stall: one batch read returns nothing
	// and consumes nothing, so publishers keep filling the ring until
	// overflow turns into counted drops — never into blocking).
	PointProbeRing Point = "probe.ring"
)

// Points returns every known fault point, in stable order.
func Points() []Point {
	return []Point{
		PointNetlinkUserToKernel,
		PointNetlinkKernelToUser,
		PointDevfsPush,
		PointDevfsCrash,
		PointStampWrite,
		PointShmTimer,
		PointAlertRender,
		PointKernelOpen,
		PointStoreAppend,
		PointStoreRotate,
		PointStoreBatch,
		PointProbeRing,
	}
}

// knownPoint reports whether p is in the vocabulary.
func knownPoint(p Point) bool {
	for _, q := range Points() {
		if q == p {
			return true
		}
	}
	return false
}

// Kind classifies what an armed fault point injects.
type Kind int

// Fault kinds.
const (
	// KindNone is the zero value: no fault.
	KindNone Kind = iota
	// KindError makes the seam operation fail (message dropped, write
	// lost, render failed, transient I/O error).
	KindError
	// KindDelay delivers the operation late: the injector advances the
	// virtual clock by the rule's Delay before the seam proceeds.
	KindDelay
	// KindDuplicate delivers a message twice (netlink seams only).
	KindDuplicate
	// KindCrash kills a component mid-protocol (devfs helper).
	KindCrash
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindDuplicate:
		return "duplicate"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a kind name ("drop" and "fail" alias "error",
// "dup" aliases "duplicate").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "error", "drop", "fail":
		return KindError, nil
	case "delay":
		return KindDelay, nil
	case "duplicate", "dup":
		return KindDuplicate, nil
	case "crash":
		return KindCrash, nil
	default:
		return KindNone, fmt.Errorf("faultinject: unknown fault kind %q", s)
	}
}

// ErrInjected is the base error carried by every injected failure, so
// callers can distinguish injected faults from organic ones with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// Fault is the outcome of evaluating a fault point. The zero value
// means "no fault: proceed".
type Fault struct {
	Point Point
	Kind  Kind
	Err   error         // non-nil for KindError and KindCrash
	Delay time.Duration // KindDelay only
}

// Injected reports whether the evaluation armed a fault.
func (f Fault) Injected() bool { return f.Kind != KindNone }

// Hook evaluates a fault point. Components hold a Hook (usually
// Injector.Eval) and consult it at each seam crossing; a nil Hook never
// injects.
type Hook func(Point) Fault

// Eval evaluates hook nil-safely.
func Eval(h Hook, p Point) Fault {
	if h == nil {
		return Fault{}
	}
	return h(p)
}

// Rule arms one fault point. A point may carry several rules; they are
// evaluated in the order given and the first that fires wins.
type Rule struct {
	Point Point
	Kind  Kind
	// Prob is the per-evaluation injection probability. Values <= 0 or
	// >= 1 mean "always" (deterministic rules never consume RNG).
	Prob float64
	// After skips the first After evaluations of this rule's point.
	After int
	// Count caps the number of injections (0 = unlimited).
	Count int
	// Delay is the virtual-clock delay for KindDelay rules.
	Delay time.Duration
}

// String renders the rule in the ParseRules grammar.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", r.Point, r.Kind)
	if r.Prob > 0 && r.Prob < 1 {
		fmt.Fprintf(&b, ":prob=%g", r.Prob)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ":after=%d", r.After)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, ":count=%d", r.Count)
	}
	if r.Delay > 0 {
		fmt.Fprintf(&b, ":delay=%s", r.Delay)
	}
	return b.String()
}

// Validate checks the rule against the point vocabulary.
func (r Rule) Validate() error {
	if !knownPoint(r.Point) {
		return fmt.Errorf("faultinject: unknown fault point %q", r.Point)
	}
	if r.Kind == KindNone {
		return fmt.Errorf("faultinject: rule for %s has no fault kind", r.Point)
	}
	if r.Kind == KindDelay && r.Delay <= 0 {
		return fmt.Errorf("faultinject: delay rule for %s needs delay > 0", r.Point)
	}
	if r.After < 0 || r.Count < 0 {
		return fmt.Errorf("faultinject: rule for %s has negative after/count", r.Point)
	}
	return nil
}

// Event records one injection, in evaluation order. Seq is the global
// evaluation sequence number (covering non-injecting evaluations too),
// so schedules from the same seed are comparable position by position.
type Event struct {
	Seq   int           `json:"seq"`
	Point Point         `json:"point"`
	Kind  string        `json:"kind"`
	Delay time.Duration `json:"delay,omitempty"`
}

// String renders "seq point kind [delay]".
func (e Event) String() string {
	if e.Delay > 0 {
		return fmt.Sprintf("%06d %s %s %s", e.Seq, e.Point, e.Kind, e.Delay)
	}
	return fmt.Sprintf("%06d %s %s", e.Seq, e.Point, e.Kind)
}

// ruleState is a Rule plus its evaluation counters.
type ruleState struct {
	Rule
	evals    int
	injected int
}

// Injector is the seeded fault engine. It is safe for concurrent use,
// but determinism additionally requires a deterministic evaluation
// order — single-goroutine campaigns on a virtual clock, as run by the
// chaos package.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rng   *rand.Rand
	clk   *clock.Simulated
	rules map[Point][]*ruleState
	seq   int
	log   []Event
}

// New constructs an injector from a seed and a rule set. Invalid rules
// are rejected.
func New(seed int64, rules ...Rule) (*Injector, error) {
	in := &Injector{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[Point][]*ruleState),
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		in.rules[r.Point] = append(in.rules[r.Point], &ruleState{Rule: r})
	}
	return in, nil
}

// Seed returns the injector's seed (for "reproduce with" messages).
func (in *Injector) Seed() int64 { return in.seed }

// SetClock attaches the virtual clock that KindDelay injections
// advance. Without one, delays are recorded but not realised.
func (in *Injector) SetClock(clk *clock.Simulated) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.clk = clk
}

// Eval evaluates the fault point and returns the armed fault, if any.
// It is the Hook components consume. A nil injector never injects.
func (in *Injector) Eval(p Point) Fault {
	if in == nil {
		return Fault{}
	}
	in.mu.Lock()
	in.seq++
	var f Fault
	for _, rs := range in.rules[p] {
		rs.evals++
		if rs.evals <= rs.After {
			continue
		}
		if rs.Count > 0 && rs.injected >= rs.Count {
			continue
		}
		if rs.Prob > 0 && rs.Prob < 1 && in.rng.Float64() >= rs.Prob {
			continue
		}
		rs.injected++
		f = Fault{Point: p, Kind: rs.Kind, Delay: rs.Delay}
		if rs.Kind == KindError || rs.Kind == KindCrash {
			f.Err = fmt.Errorf("%s: %w", p, ErrInjected)
		}
		break
	}
	var clk *clock.Simulated
	if f.Injected() {
		in.log = append(in.log, Event{Seq: in.seq, Point: p, Kind: f.Kind.String(), Delay: f.Delay})
		clk = in.clk
	}
	in.mu.Unlock()

	if f.Kind == KindDelay && clk != nil && f.Delay > 0 {
		// Realise the delay on the virtual clock: the operation
		// completes, late.
		clk.Advance(f.Delay)
	}
	return f
}

// Hook returns in.Eval as a Hook (nil receiver yields a nil Hook).
func (in *Injector) Hook() Hook {
	if in == nil {
		return nil
	}
	return in.Eval
}

// Events returns a copy of the injection log, in evaluation order.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}

// Evaluations returns the total number of fault-point evaluations.
func (in *Injector) Evaluations() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// Schedule renders the injection log one event per line — the
// byte-comparable artifact the determinism tests diff.
func (in *Injector) Schedule() string {
	events := in.Events()
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseRules parses a comma-separated rule list, one rule per entry:
//
//	point:kind[:prob=F][:after=N][:count=N][:delay=D]
//
// A bare float option is shorthand for prob (e.g.
// "netlink.user_to_kernel:drop:0.2"). Kind names accept the ParseKind
// aliases. An empty spec yields no rules.
func ParseRules(spec string) ([]Rule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Rule
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("faultinject: rule %q: want point:kind[:options]", entry)
		}
		kind, err := ParseKind(parts[1])
		if err != nil {
			return nil, fmt.Errorf("faultinject: rule %q: %w", entry, err)
		}
		r := Rule{Point: Point(parts[0]), Kind: kind}
		for _, opt := range parts[2:] {
			key, val, found := strings.Cut(opt, "=")
			if !found {
				// Bare float: prob shorthand.
				p, perr := strconv.ParseFloat(opt, 64)
				if perr != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad option %q", entry, opt)
				}
				r.Prob = p
				continue
			}
			switch key {
			case "prob":
				if r.Prob, err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad prob %q", entry, val)
				}
			case "after":
				if r.After, err = strconv.Atoi(val); err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad after %q", entry, val)
				}
			case "count":
				if r.Count, err = strconv.Atoi(val); err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad count %q", entry, val)
				}
			case "delay":
				if r.Delay, err = time.ParseDuration(val); err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad delay %q", entry, val)
				}
			default:
				return nil, fmt.Errorf("faultinject: rule %q: unknown option %q", entry, key)
			}
		}
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("faultinject: rule %q: %w", entry, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// DefaultRules is the standard chaos mix: every fault point armed at a
// moderate probability, the helper crashing once mid-campaign.
func DefaultRules() []Rule {
	return []Rule{
		{Point: PointNetlinkUserToKernel, Kind: KindError, Prob: 0.05},
		{Point: PointNetlinkUserToKernel, Kind: KindDelay, Prob: 0.05, Delay: 30 * time.Millisecond},
		{Point: PointNetlinkUserToKernel, Kind: KindDuplicate, Prob: 0.03},
		{Point: PointNetlinkKernelToUser, Kind: KindError, Prob: 0.05},
		{Point: PointDevfsPush, Kind: KindError, Prob: 0.25},
		{Point: PointDevfsCrash, Kind: KindCrash, After: 2, Count: 1},
		{Point: PointStampWrite, Kind: KindError, Prob: 0.10},
		{Point: PointShmTimer, Kind: KindError, Prob: 0.10},
		{Point: PointAlertRender, Kind: KindError, Prob: 0.10},
		{Point: PointKernelOpen, Kind: KindError, Prob: 0.05},
		{Point: PointProbeRing, Kind: KindError, Prob: 0.25},
	}
}
