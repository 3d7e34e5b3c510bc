package telemetry

import (
	"fmt"
	"strings"

	"overhaul/internal/probe"
)

// Snapshot is the full export form of a recorder, consumed by
// cmd/overhaul-top -json and by tests asserting reproducibility.
type Snapshot struct {
	Metrics      []MetricPoint `json:"metrics"`
	Spans        []SpanRecord  `json:"spans"`
	SpansDropped uint64        `json:"spans_dropped,omitempty"`
	Flight       []FlightEvent `json:"flight"`
	Dumps        []FlightDump  `json:"dumps,omitempty"`
}

// Snapshot exports everything the recorder holds, deterministically
// ordered.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return Snapshot{
		Metrics:      r.MetricsSnapshot(),
		Spans:        r.Spans(),
		SpansDropped: r.SpansDropped(),
		Flight:       r.FlightEvents(),
		Dumps:        r.FlightDumps(),
	}
}

const timeLayout = "15:04:05.000000"

// FormatMetrics renders a metrics snapshot as an aligned text table.
func FormatMetrics(points []MetricPoint) string {
	if len(points) == 0 {
		return "(no metrics)\n"
	}
	var b strings.Builder
	for _, p := range points {
		id := p.Subsystem + "." + p.Name
		if p.Labels != "" {
			id += "{" + p.Labels + "}"
		}
		switch p.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-52s hist  count=%-6d p50=%-12s p99=%-12s max=%s\n",
				id, p.Latency.Count, p.Latency.P50, p.Latency.P99, p.Latency.Max)
		default:
			fmt.Fprintf(&b, "%-52s count %d\n", id, p.Value)
		}
	}
	return b.String()
}

// FormatTrace renders the spans of one trace as an indented tree with
// virtual-clock timestamps. Spans whose parent is missing from the
// slice (evicted or foreign) render at the root.
func FormatTrace(spans []SpanRecord) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	children := make(map[probe.SpanID][]SpanRecord)
	byID := make(map[probe.SpanID]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	var render func(s SpanRecord, depth int)
	render = func(s SpanRecord, depth int) {
		indent := strings.Repeat("  ", depth)
		dur := "open"
		if s.Ended {
			dur = s.End.Sub(s.Start).String()
		}
		fmt.Fprintf(&b, "%s%s  #%d %s.%s (%s)",
			indent, s.Start.UTC().Format(timeLayout), s.ID, s.Subsystem, s.Name, dur)
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}

// FormatFlight renders flight events as one line each, oldest first.
func FormatFlight(events []FlightEvent) string {
	if len(events) == 0 {
		return "(flight ring empty)\n"
	}
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%6d %s %-10s %-12s %s",
			ev.Seq, ev.Time.UTC().Format(timeLayout), ev.Subsystem, ev.Kind, ev.Detail)
		if ev.Trace != 0 {
			fmt.Fprintf(&b, " [trace=%d span=%d]", ev.Trace, ev.Span)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
