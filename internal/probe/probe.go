// Package probe is Overhaul's one event source: every instrumented hot
// path emits through a named Hook, and everything that observes the
// system — live rings and the telemetry recorder alike — consumes the
// events those hooks emit. It is modeled on the tracepoint +
// ring-buffer design of eBPF tracers.
//
//   - Hook: a named attach point compiled into a hot path (kernel
//     open/decide, monitor evaluate/audit/notify, xserver
//     input/notify/query/alert, netlink send/recv/call, fleet
//     dispatch, and the fault, degradation and recovery points). An
//     unattached hook costs its caller one atomic pointer load; event
//     construction happens only behind a Wants(pid) check. A hook that
//     opens a span (Begin) mints its trace and span IDs from the
//     registry's counters, so IDs are sequential per system.
//
//   - Spec: a small, safe predicate program — match on op kind, pid
//     range, device class, verdict, session ID — compiled from a
//     textual spec ("op=open dev=mic verdict=deny") into a flat,
//     allocation-free matcher. There are no loops and no user code:
//     a probe cannot block, recurse into, or perturb the hot path.
//
//   - Ring: a perf-buffer-like bounded MPSC ring, the sink for live
//     readers (overhaul-top -probe, overhaul-multiview). Publishing is
//     lock-free and never blocks; a full ring drops the event and
//     counts the drop, exactly like a perf buffer under a slow reader.
//
//   - Consumer: an in-process observer fed inline by Emit (the
//     telemetry recorder). It sees every event at the hooks it
//     attached to, unfiltered and undropped.
//
// A Registry owns the fixed set of hooks, the span ID counters, and
// the runtime attach/detach/list surface.
package probe

import (
	"fmt"
	"strconv"
)

// Kind names the attach point class an event was emitted from.
type Kind uint8

// Event kinds, one per attach point.
const (
	KindNone        Kind = iota
	KindOpen             // kernel.open: the augmented open(2) path
	KindDecide           // kernel.decide: a permission decision record
	KindEvaluate         // monitor.evaluate: the policy rule ran (the decide span)
	KindInput            // xserver.input: authentic hardware input
	KindSend             // netlink.send: a kernel→user channel message
	KindRecv             // netlink.recv: a user→kernel channel message
	KindDispatch         // fleet.dispatch: one ingress request routed
	KindNotify           // monitor.notify: an interaction stamp written
	KindInteraction      // xserver.notify: an interaction notification sent
	KindQuery            // xserver.query: a permission query sent
	KindAlert            // xserver.alert: a trusted alert rendered
	KindCall             // netlink.call: a display-server channel call
	KindFault            // system.fault: an injected fault fired
	KindDegrade          // system.degrade: protection degraded
	KindRecover          // system.recover: protection restored

	kindCount
)

var kindNames = [kindCount]string{
	KindNone: "none", KindOpen: "open", KindDecide: "decide",
	KindEvaluate: "evaluate", KindInput: "input",
	KindSend: "send", KindRecv: "recv", KindDispatch: "dispatch",
	KindNotify: "notify", KindInteraction: "interaction", KindQuery: "query",
	KindAlert: "alert", KindCall: "call", KindFault: "fault",
	KindDegrade: "degrade", KindRecover: "recover",
}

// String names the kind ("open", "decide", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// KindOf parses a kind name; KindNone for unknown names ("none" is not
// a parseable kind: every emitted event has one).
func KindOf(s string) Kind {
	for k := KindOpen; k < kindCount; k++ {
		if kindNames[k] == s {
			return k
		}
	}
	return KindNone
}

// Dev names the sensitive-device class of a decision event, mirroring
// the monitor's operation vocabulary op ∈ {copy, paste, scr, mic, cam}
// plus the catch-all device class.
type Dev uint8

// Device classes.
const (
	DevNone   Dev = iota
	DevCopy       // clipboard copy
	DevPaste      // clipboard paste
	DevScreen     // screen capture
	DevMic        // microphone
	DevCam        // camera
	DevOther      // any other sensitive device class

	devCount
)

var devNames = [devCount]string{
	DevNone: "none", DevCopy: "copy", DevPaste: "paste",
	DevScreen: "scr", DevMic: "mic", DevCam: "cam", DevOther: "dev",
}

// String names the device class with the monitor's op spelling.
func (d Dev) String() string {
	if int(d) < len(devNames) {
		return devNames[d]
	}
	return "Dev(" + strconv.Itoa(int(d)) + ")"
}

// DevOf parses a monitor op name ("copy", "paste", "scr", "mic",
// "cam", "dev") into its device class; DevNone for anything else.
func DevOf(s string) Dev {
	for d := DevCopy; d < devCount; d++ {
		if devNames[d] == s {
			return d
		}
	}
	return DevNone
}

// Verdict is a decision outcome carried by an event. VerdictNone marks
// events from attach points that carry no decision (input, send, recv).
type Verdict uint8

// Verdicts.
const (
	VerdictNone Verdict = iota
	VerdictGrant
	VerdictDeny

	verdictCount
)

var verdictNames = [verdictCount]string{
	VerdictNone: "none", VerdictGrant: "grant", VerdictDeny: "deny",
}

// String names the verdict.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "Verdict(" + strconv.Itoa(int(v)) + ")"
}

// VerdictOf parses a verdict name; VerdictNone for anything else.
func VerdictOf(s string) Verdict {
	switch s {
	case "grant":
		return VerdictGrant
	case "deny":
		return VerdictDeny
	default:
		return VerdictNone
	}
}

// Phase places an event on a span: a span's begin and end events
// bracket it (Hook.Begin, Span.End), and a point event is an instant.
type Phase uint8

// Phases.
const (
	PhasePoint Phase = iota
	PhaseBegin
	PhaseEnd
)

// Flags qualify an event beyond its kind.
type Flags uint8

// Event flags.
const (
	// FlagRecorded marks a kernel.decide event for a denial decided
	// outside the policy (a fail-closed fault) and only recorded.
	FlagRecorded Flags = 1 << iota
	// FlagFailed marks an xserver.alert end event whose render failed.
	FlagFailed
)

// TraceID identifies one causally connected decision path: one user
// interaction and every enforcement step it enables. IDs are
// sequential from 1 per registry, never random, so traces are stable
// across runs.
type TraceID uint64

// SpanID identifies one span. IDs are sequential from 1 per registry
// in begin order across all traces.
type SpanID uint64

// SpanContext is the propagation token: enough to link a child span to
// its parent across a process, channel, or IPC boundary. The zero value
// means "no context" and starts a fresh trace.
//
// Contexts ride the same paths interaction timestamps do: the netlink
// message structs carry one alongside the stamp time, the kernel's
// task struct stores the context that minted the current stamp
// (inherited on fork, P1), and the IPC carriers embed it next to the
// stamp they propagate (P2).
type SpanContext struct {
	Trace TraceID `json:"trace"`
	Span  SpanID  `json:"span"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Event is one probe record. It is flat — its strings are ones the
// emitting site already holds (a monitor reason, a device path) — so a
// ring publish is a single copy and emission allocates nothing.
//
// TimeNanos and StampNanos are unix nanoseconds; a zero StampNanos
// means "no interaction stamp". Session is 0 outside fleet dispatch.
// Seq is assigned by the ring at publish time (position order), 0
// before publication. Ctx is the span the event begins, ends, or was
// emitted under; Parent is a begin event's parent span.
type Event struct {
	Seq        uint64
	TimeNanos  int64
	StampNanos int64
	Session    uint64
	PID        int64
	// Arg is a kind-specific number: the window an input span landed
	// on, the faultinject.Kind of a fault.
	Arg     int64
	Ctx     SpanContext
	Parent  SpanID
	Kind    Kind
	Phase   Phase
	Dev     Dev
	Verdict Verdict
	Flags   Flags
	// Reason is a decision's reason, a failed call's error, a fault's
	// point, a degradation's cause, or an opened device's class.
	Reason string
	// Detail is the event's subject: a device path, an alert message,
	// a netlink call name, a fault's description, or the subsystem
	// that degraded or recovered.
	Detail string
}

// Format renders the event as one canonical line:
//
//	<kind>[.begin|.end] pid=P session=S dev=D verdict=V t=NANOS stamp=NANOS reason=TEXT [span=T.S] [detail=TEXT]
//
// A decide event renders exactly like the audit record it mirrors:
// the probe ≡ audit oracle test diffs the two.
func (ev Event) Format() string {
	kind := ev.Kind.String()
	switch ev.Phase {
	case PhaseBegin:
		kind += ".begin"
	case PhaseEnd:
		kind += ".end"
	}
	s := fmt.Sprintf("%s pid=%d session=%d dev=%s verdict=%s t=%d stamp=%d reason=%s",
		kind, ev.PID, ev.Session, ev.Dev, ev.Verdict, ev.TimeNanos, ev.StampNanos, ev.Reason)
	if ev.Ctx.Valid() {
		s += fmt.Sprintf(" span=%d.%d", ev.Ctx.Trace, ev.Ctx.Span)
	}
	if ev.Detail != "" {
		s += " detail=" + ev.Detail
	}
	return s
}
