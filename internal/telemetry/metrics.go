package telemetry

import (
	"sort"
	"time"

	"overhaul/internal/probe"
)

// metricKey addresses one metric. Labels is a single pre-formed string
// (e.g. "op=mic verdict=grant") rather than a map so that snapshots
// order deterministically.
type metricKey struct {
	Subsystem string
	Name      string
	Labels    string
}

// metric is one counter or latency histogram. A histogram's buckets
// are allocated on its first observation: a LatencyHist is ~7.7 KB, and
// most of a recorder's metrics are counters that never need one.
type metric struct {
	value   uint64
	hist    *LatencyHist // nil for a counter
	updated int64        // unix nanos of the last update; 0 = never
}

// hotMetrics are the metrics every decision updates, resolved once at
// New so the decision path never hashes a metric key.
type hotMetrics struct {
	auditAppends, notifications *metric
	messages                    [2]*metric // kernel→user, user→kernel
	decisions                   [probe.DevOther + 1][probe.VerdictDeny + 1]*metric
	stampAge                    [probe.DevOther + 1]*metric
}

// Label strings of the known device classes, built once so counting
// them allocates nothing.
var opLabels [probe.DevOther + 1]string

func init() {
	for d := range opLabels {
		opLabels[d] = "op=" + probe.Dev(d).String()
	}
}

func (r *Recorder) resolveHot() {
	h := &r.hot
	h.auditAppends = r.metric("monitor", "audit_appends", "")
	h.notifications = r.metric("monitor", "notifications", "")
	h.messages[0] = r.metric("netlink", "messages", "dir=kernel_to_user")
	h.messages[1] = r.metric("netlink", "messages", "dir=user_to_kernel")
	for d := probe.DevCopy; d <= probe.DevOther; d++ {
		for _, v := range []probe.Verdict{probe.VerdictGrant, probe.VerdictDeny} {
			h.decisions[d][v] = r.metric("monitor", "decisions", opLabels[d]+" verdict="+v.String())
		}
		h.stampAge[d] = r.metric("monitor", "stamp_age", opLabels[d])
	}
}

// metric resolves the (subsystem, name, labels) metric, creating it on
// first use. Resolving does not surface it: a snapshot shows only
// metrics that were updated, and a metric is a histogram once it was
// observed. Like every metric update, it requires r.mu held.
func (r *Recorder) metric(subsystem, name, labels string) *metric {
	k := metricKey{Subsystem: subsystem, Name: name, Labels: labels}
	m := r.metrics[k]
	if m == nil {
		m = &metric{}
		r.metrics[k] = m
	}
	return m
}

// add increments a counter.
func (r *Recorder) add(m *metric) {
	m.value++
	m.updated = r.updateStamp()
}

// count increments the (subsystem, name, labels) counter: add for
// metrics off the decision path.
func (r *Recorder) count(subsystem, name, labels string) {
	r.add(r.metric(subsystem, name, labels))
}

// observe records one latency observation into a histogram, giving
// it buckets on its first one. Negative durations clamp to zero.
func (r *Recorder) observe(m *metric, d time.Duration) {
	if m.hist == nil {
		m.hist = new(LatencyHist)
	}
	m.hist.Observe(d)
	m.updated = r.updateStamp()
}

// MetricPoint is one metric in a snapshot.
type MetricPoint struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Labels    string `json:"labels,omitempty"`
	// Kind is "counter" or "histogram".
	Kind string `json:"kind"`
	// Value carries the counter value.
	Value int64 `json:"value,omitempty"`
	// Latency digests a histogram (Kind "histogram" only).
	Latency *LatencySummary `json:"latency,omitempty"`
	// Updated is the (virtual-clock) instant of the last update.
	Updated time.Time `json:"updated"`
}

// MetricsSnapshot returns every updated metric, sorted by subsystem,
// name, labels, kind — a deterministic order under the simulated
// clock.
func (r *Recorder) MetricsSnapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]MetricPoint, 0, len(r.metrics))
	for k, m := range r.metrics {
		if m.updated == 0 {
			continue
		}
		p := MetricPoint{
			Subsystem: k.Subsystem, Name: k.Name, Labels: k.Labels,
			Kind: "counter", Value: int64(m.value), Updated: time.Unix(0, m.updated).UTC(),
		}
		if m.hist != nil {
			lat := m.hist.Summary()
			p.Kind, p.Latency = "histogram", &lat
		}
		out = append(out, p)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Subsystem != b.Subsystem {
			return a.Subsystem < b.Subsystem
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Labels != b.Labels {
			return a.Labels < b.Labels
		}
		return a.Kind < b.Kind
	})
	return out
}
