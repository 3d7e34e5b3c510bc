// Package telemetry is the observability subsystem for the Overhaul
// enforcement stack: metrics, decision-path tracing, and a flight
// recorder.
//
// The paper's evaluation (§V) rests on reading Overhaul's logs to see
// which applications were granted access; a production deployment of
// the same architecture additionally needs rates, latencies, and — for
// any single decision — the causal chain that produced it (input →
// notification → syscall → decision → alert). This package provides the
// three instruments the enforcement seams thread through:
//
//   - a metrics registry: counters, gauges, and fixed-bucket latency
//     histograms keyed by (subsystem, name, labels), timestamped on the
//     injected clock so snapshots are deterministic under the
//     simulated clock;
//   - a decision-path tracer: spans with parent/child links whose IDs
//     are sequential (never random), propagated across the kernel↔X
//     netlink channel and the IPC stamp-carrying paths the same way
//     interaction timestamps already propagate;
//   - a flight recorder: a bounded ring of recent events that a
//     denial, a degradation, or a chaos-invariant violation trips, so
//     every fail-closed event is explainable after the fact. A trip
//     costs O(1) and allocates nothing: its dump is a window of the
//     ring, copied out only when read or before the ring overwrites
//     it, and a denial's reason is rendered only then.
//
// A nil *Recorder is the disabled state: every method is a no-op and
// the instrumented hot paths (monitor.Decide in particular) add zero
// allocations, verified by BenchmarkDecideTelemetryDisabled.
//
// The recorder is built for multicore hot paths: the registry, the
// tracer, and the flight recorder each sit behind their own lock, and
// metric updates through pre-resolved handles (Counter/Histogram) are
// plain atomic operations that take no lock at all.
package telemetry

import (
	"sync/atomic"
	"time"

	"overhaul/internal/clock"
)

// Defaults for the bounded stores. They are deliberately generous for
// interactive use and small enough that a runaway campaign cannot
// exhaust memory. The span ring is additionally sized so that the
// recycled-span working set (capacity × span size, ~0.25 MB) stays
// cache-resident: the ring is a diagnostic window onto recent
// decisions, not an archive, and measurements show a ring that
// outgrows the cache taxes every StartSpan with memory stalls.
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

// Recorder is the telemetry sink shared by every instrumented
// subsystem. It is safe for concurrent use; all methods are no-ops on a
// nil receiver, which is how telemetry is disabled.
//
// Each instrument guards its own state, so a decision span never
// contends with an unrelated metric update.
type Recorder struct {
	clk clock.Clock

	spanCap   int
	flightCap int
	dumpCap   int

	metrics metricsStore
	tracer  tracerStore
	flight  flightStore

	// tick caches the most recent clock reading (unix nanos), refreshed
	// at span boundaries. Metric freshness stamps read it instead of
	// the clock: a counter bumped inside an operation is "updated" at
	// that operation's instant, and skipping the per-Add clock
	// conversion keeps handle updates to two atomic stores.
	tick atomic.Int64
}

// New constructs an enabled recorder on the given clock with default
// capacities.
func New(clk clock.Clock) *Recorder {
	return NewWithOptions(clk, Options{})
}

// NewWithOptions constructs an enabled recorder with explicit bounds.
// A nil clock selects a fresh simulated clock (deterministic output).
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
	}
	r.metrics.init()
	return r
}

// Enabled reports whether the recorder records anything. Instrumented
// code may use it to skip label construction on hot paths; every method
// is nil-safe regardless.
func (r *Recorder) Enabled() bool { return r != nil }

// now returns the recorder's current instant. Callers must hold no
// assumption about monotonicity beyond what the injected clock gives.
func (r *Recorder) now() time.Time { return r.clk.Now() }

// nowNanos is the instant as unix nanos, the representation the atomic
// handle paths store. The clocks in this tree never report the zero
// instant (the simulated epoch is 2016), so 0 doubles as "never".
func (r *Recorder) nowNanos() int64 {
	n := r.clk.Now().UnixNano()
	r.tick.Store(n)
	return n
}

// coarseNanos returns a recently observed clock reading for freshness
// stamps: exact when no span is in flight (first use reads the clock),
// otherwise as fresh as the latest span boundary. Precise instants
// belong to spans and flight events; metric Updated stamps only feed
// staleness displays.
func (r *Recorder) coarseNanos() int64 {
	if n := r.tick.Load(); n != 0 {
		return n
	}
	return r.nowNanos()
}
