// Package telemetry is the observability consumer of the probe event
// stream: it rebuilds metrics, decision-path traces, and a flight
// recorder from the events the enforcement stack's hooks emit.
//
// The paper's evaluation (§V) rests on reading Overhaul's logs to see
// which applications were granted access; a production deployment of
// the same architecture additionally needs rates, latencies, and — for
// any single decision — the causal chain that produced it (input →
// notification → syscall → decision → alert). The hot paths know
// nothing of this package: they emit probe events, and a Recorder
// attached to their registry (Attach) consumes them inline, inside
// Emit. From those events it keeps
//
//   - metrics: counters and fixed-bucket latency histograms keyed by
//     (subsystem, name, labels), every one computed from events (a
//     decision event counts a decision), timestamped on the injected
//     clock so snapshots are deterministic under the simulated clock;
//   - spans: the begin/end events of the hooks that open spans, with
//     the sequential trace and span IDs the registry minted, so a
//     trace crosses the kernel↔X netlink channel and the IPC
//     stamp-carrying paths the way interaction timestamps do;
//   - a flight recorder: a bounded ring of recent events that a
//     denial, a degradation, or a chaos-invariant violation trips, so
//     every fail-closed event is explainable after the fact. A trip
//     costs O(1) and allocates nothing: its dump is a window of the
//     ring, copied out only when read or before the ring overwrites
//     it, and a denial's reason is rendered only then.
//
// The recorder consumes inline rather than draining a ring: it owns no
// goroutine, so a recorder nobody closes costs nothing once dropped,
// and each event's work lands on the operation that emitted it rather
// than piling into a batch. Live readers that must never slow the hot
// path attach drop-not-block probe rings to the same hooks instead.
//
// A nil *Recorder records nothing and its readers return empty
// results; a system booted without one leaves its hooks unattached.
package telemetry

import (
	"strings"
	"sync"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/faultinject"
	"overhaul/internal/probe"
)

// Defaults for the bounded stores. They are deliberately generous for
// interactive use and small enough that a runaway campaign cannot
// exhaust memory: the span ring is a diagnostic window onto recent
// decisions, not an archive.
const (
	DefaultSpanCapacity   = 512
	DefaultFlightCapacity = 256
	DefaultDumpCapacity   = 8
)

// Options bounds the recorder's stores. Zero fields select the
// defaults.
type Options struct {
	// SpanCapacity bounds retained spans (oldest evicted).
	SpanCapacity int
	// FlightCapacity bounds the flight-recorder ring.
	FlightCapacity int
	// DumpCapacity bounds retained flight dumps (oldest evicted).
	DumpCapacity int
}

// Recorder is the telemetry consumer shared by every instrumented
// subsystem of one system. It is safe for concurrent use: one lock
// guards its stores, taken once per event.
type Recorder struct {
	clk clock.Clock

	spanCap   int
	flightCap int
	dumpCap   int

	mu      sync.Mutex
	metrics map[metricKey]*metric
	hot     hotMetrics
	tracer  tracerStore
	flight  flightStore

	// lastEnd is the instant (unix nanos) of the latest span end, and
	// every metric update's freshness stamp: a counter bumped inside an
	// operation is "updated" at that operation's last span boundary.
	lastEnd int64
}

// New constructs a recorder on the given clock with default
// capacities.
func New(clk clock.Clock) *Recorder {
	return NewWithOptions(clk, Options{})
}

// NewWithOptions constructs a recorder with explicit bounds. A nil
// clock selects a fresh simulated clock (deterministic output).
func NewWithOptions(clk clock.Clock, opts Options) *Recorder {
	if clk == nil {
		clk = clock.NewSimulated()
	}
	if opts.SpanCapacity <= 0 {
		opts.SpanCapacity = DefaultSpanCapacity
	}
	if opts.FlightCapacity <= 0 {
		opts.FlightCapacity = DefaultFlightCapacity
	}
	if opts.DumpCapacity <= 0 {
		opts.DumpCapacity = DefaultDumpCapacity
	}
	r := &Recorder{
		clk:       clk,
		spanCap:   opts.SpanCapacity,
		flightCap: opts.FlightCapacity,
		dumpCap:   opts.DumpCapacity,
		metrics:   make(map[metricKey]*metric),
	}
	r.resolveHot()
	return r
}

// hooks are the attach points the recorder reads: every one but
// fleet.dispatch, whose events mirror kernel.decide's one for one.
var hooks = []string{
	probe.HookKernelOpen, probe.HookKernelDecide,
	probe.HookMonitorEvaluate, probe.HookMonitorNotify,
	probe.HookXServerInput, probe.HookXServerNotify, probe.HookXServerQuery, probe.HookXServerAlert,
	probe.HookNetlinkSend, probe.HookNetlinkRecv, probe.HookNetlinkCall,
	probe.HookFault, probe.HookDegrade, probe.HookRecover,
}

// Attach subscribes the recorder to the hooks it reads in reg. A nil
// recorder attaches nothing.
func (r *Recorder) Attach(reg *probe.Registry) error {
	if r == nil {
		return nil
	}
	return reg.AttachConsumer(r, hooks...)
}

// now returns the recorder's current instant.
func (r *Recorder) now() time.Time { return r.clk.Now() }

// updateStamp returns a metric update's freshness stamp: lastEnd, or
// — before any span has ended — the clock, which then stands in for
// it. The clocks in this tree never report the zero instant (the
// simulated epoch is 2016), so 0 doubles as "never".
func (r *Recorder) updateStamp() int64 {
	if r.lastEnd == 0 {
		r.lastEnd = r.clk.Now().UnixNano()
	}
	return r.lastEnd
}

// opName names a decision event's operation: its device class, or the
// op the monitor passed in Detail when it names no known class.
func opName(ev *probe.Event) string {
	if ev.Dev == probe.DevNone {
		return ev.Detail
	}
	return ev.Dev.String()
}

// Consume folds one event into the recorder: probe.Consumer, called
// inline by the hooks the recorder is attached to.
func (r *Recorder) Consume(ev probe.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Kind {
	case probe.KindInput:
		name, label := "hardware_click", "kind=click"
		if ev.Detail == "key" {
			name, label = "hardware_key", "kind=key"
		}
		switch {
		case ev.Phase == probe.PhaseBegin:
			r.beginSpan(&ev, "xserver", name)
			r.count("xserver", "hardware_events", label)
		case ev.Phase == probe.PhaseEnd && ev.Arg != 0:
			r.endSpan(&ev, numAttr("window", ev.Arg))
		case ev.Phase == probe.PhaseEnd:
			r.endSpan(&ev)
		}
	case probe.KindInteraction:
		if ev.Phase == probe.PhaseBegin {
			r.beginSpan(&ev, "xserver", "notify_interaction", numAttr("pid", ev.PID))
			r.count("xserver", "notifications", "")
		} else {
			r.endFailable(&ev, "xserver", "policy_errors")
		}
	case probe.KindQuery:
		switch {
		case ev.Phase == probe.PhaseBegin:
			r.beginSpan(&ev, "xserver", "query", numAttr("pid", ev.PID), strAttr("op", ev.Dev.String()))
			r.count("xserver", "queries", opLabels[ev.Dev])
		case ev.Reason != "":
			r.endFailable(&ev, "xserver", "policy_errors")
		default:
			r.endSpan(&ev, strAttr("verdict", ev.Verdict.String()))
		}
	case probe.KindCall:
		if ev.Phase == probe.PhaseBegin {
			r.beginSpan(&ev, "netlink", ev.Detail)
		} else {
			r.endFailable(&ev, "", "")
		}
	case probe.KindNotify:
		switch {
		case ev.Phase == probe.PhaseBegin:
			r.beginSpan(&ev, "monitor", "notify")
		case ev.Reason != "":
			r.endFailable(&ev, "monitor", "notify_errors")
		default:
			r.add(r.hot.notifications)
			r.endSpan(&ev, numAttr("pid", ev.PID))
		}
	case probe.KindOpen:
		switch ev.Phase {
		case probe.PhaseBegin:
			r.beginSpan(&ev, "kernel", "open", strAttr("path", ev.Detail), numAttr("pid", ev.PID))
			r.count("kernel", "device_opens", "class="+ev.Reason)
		case probe.PhaseEnd:
			r.endSpan(&ev)
		}
	case probe.KindEvaluate:
		if ev.Phase == probe.PhaseBegin {
			r.beginSpan(&ev, "monitor", "decide", numAttr("pid", ev.PID), strAttr("op", opName(&ev)),
				strAttr("verdict", ev.Verdict.String()), strAttr("reason", ev.Reason))
		} else {
			r.endSpan(&ev)
		}
	case probe.KindDecide:
		// Every decision is one audit append, so the audit log and
		// overhaul-top can never silently disagree.
		r.add(r.hot.auditAppends)
		pid, op := int(ev.PID), opName(&ev)
		decisions, stampAge := r.hot.decisions[ev.Dev][ev.Verdict], r.hot.stampAge[ev.Dev]
		if ev.Dev == probe.DevNone {
			decisions = r.metric("monitor", "decisions", "op="+op+" verdict="+ev.Verdict.String(), false)
			stampAge = r.metric("monitor", "stamp_age", "op="+op, true)
		}
		r.add(decisions)
		if ev.Flags&probe.FlagRecorded != 0 {
			r.count("monitor", "denials_recorded", "")
			r.tripDenial(ev.Ctx, "monitor", pid, op, ev.Reason)
			return
		}
		if ev.StampNanos != 0 {
			// Distribution of stamp ages at decision time: the paper's δ
			// sweep (§V-A) in histogram form.
			r.observe(stampAge, time.Duration(ev.TimeNanos-ev.StampNanos))
		}
		r.recordDecision(ev.Ctx, "monitor", pid, op, ev.Verdict.String(), ev.Reason)
		if ev.Verdict == probe.VerdictDeny {
			// Every denial trips the flight recorder: the dump's final
			// events carry the deny reason plus whatever preceded it.
			r.tripDenial(ev.Ctx, "monitor", pid, op, ev.Reason)
		}
	case probe.KindAlert:
		switch ev.Phase {
		case probe.PhaseBegin:
			r.beginSpan(&ev, "xserver", "alert")
		case probe.PhasePoint:
			r.count("xserver", "alerts", opLabels[ev.Dev])
		case probe.PhaseEnd:
			if ev.Flags&probe.FlagFailed != 0 {
				r.endSpan(&ev, strAttr("message", ev.Detail), strAttr("render_failed", "true"))
			} else {
				r.endSpan(&ev, strAttr("message", ev.Detail))
			}
		}
	case probe.KindSend:
		r.add(r.hot.messages[0])
	case probe.KindRecv:
		r.add(r.hot.messages[1])
	case probe.KindFault:
		switch point := faultinject.Point(ev.Reason); point {
		case faultinject.PointKernelOpen:
			r.count("kernel", "open_faults", "")
			r.recordEvent(ev.Ctx, "kernel", "fault", ev.Detail)
		case faultinject.PointAlertRender:
			r.count("xserver", "alert_render_failures", "")
			r.recordEvent(ev.Ctx, "xserver", "fault", ev.Detail)
		default:
			sub, _, _ := strings.Cut(ev.Reason, ".")
			r.count(sub, "faults", "point="+ev.Reason+" kind="+faultinject.Kind(ev.Arg).String())
			if ev.Detail != "" {
				r.recordEvent(ev.Ctx, sub, "fault", ev.Detail)
			}
		}
	case probe.KindDegrade:
		switch ev.Detail {
		case "xserver":
			r.recordEvent(ev.Ctx, "xserver", "degradation", ev.Reason)
		case "monitor":
			r.count("monitor", "degradations", "")
			fallthrough
		default:
			r.tripFlight(ev.Ctx, ev.Detail, ev.Reason)
		}
	case probe.KindRecover:
		r.recordEvent(ev.Ctx, ev.Detail, "recovery", ev.Reason)
	}
}

// endFailable ends a span whose end event carries an error in Reason:
// the error is annotated and, when name is set, counted.
func (r *Recorder) endFailable(ev *probe.Event, subsystem, name string) {
	if ev.Reason == "" {
		r.endSpan(ev)
		return
	}
	if name != "" {
		r.count(subsystem, name, "")
	}
	r.endSpan(ev, strAttr("error", ev.Reason))
}
