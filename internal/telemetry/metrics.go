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

// HistogramBuckets is the fixed latency ladder every histogram uses.
// Fixed buckets keep snapshots comparable across runs and subsystems;
// on the simulated clock most observations land in the first bucket
// unless injected delays or retry backoff advanced virtual time.
var HistogramBuckets = [...]time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// metric is one counter or histogram. counts has one slot per
// HistogramBuckets bound plus a final overflow bucket.
type metric struct {
	hist    bool
	value   uint64
	counts  [len(HistogramBuckets) + 1]uint64
	sum     time.Duration
	updated int64 // unix nanos of the last update; 0 = never
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
	h.auditAppends = r.metric("monitor", "audit_appends", "", false)
	h.notifications = r.metric("monitor", "notifications", "", false)
	h.messages[0] = r.metric("netlink", "messages", "dir=kernel_to_user", false)
	h.messages[1] = r.metric("netlink", "messages", "dir=user_to_kernel", false)
	for d := probe.DevCopy; d <= probe.DevOther; d++ {
		for _, v := range []probe.Verdict{probe.VerdictGrant, probe.VerdictDeny} {
			h.decisions[d][v] = r.metric("monitor", "decisions", opLabels[d]+" verdict="+v.String(), false)
		}
		h.stampAge[d] = r.metric("monitor", "stamp_age", opLabels[d], true)
	}
}

// metric resolves the (subsystem, name, labels) metric, creating it on
// first use. Resolving does not surface it: a snapshot shows only
// metrics that were updated. Like every metric update, it requires
// r.mu held.
func (r *Recorder) metric(subsystem, name, labels string, hist bool) *metric {
	k := metricKey{Subsystem: subsystem, Name: name, Labels: labels}
	m := r.metrics[k]
	if m == nil {
		m = &metric{hist: hist}
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
	r.add(r.metric(subsystem, name, labels, false))
}

// observe records one latency observation into a histogram. Negative
// durations clamp to zero.
func (r *Recorder) observe(m *metric, d time.Duration) {
	d = max(d, 0)
	idx := len(HistogramBuckets) // overflow
	for i, bound := range HistogramBuckets {
		if d <= bound {
			idx = i
			break
		}
	}
	m.counts[idx]++
	m.sum += d
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
	// Histogram fields (Kind "histogram" only). Buckets aligns with
	// HistogramBuckets plus one trailing overflow bucket.
	Buckets []uint64      `json:"buckets,omitempty"`
	Sum     time.Duration `json:"sum_ns,omitempty"`
	Count   uint64        `json:"count,omitempty"`
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
		if m.hist {
			p.Kind, p.Sum, p.Buckets = "histogram", m.sum, append([]uint64(nil), m.counts[:]...)
			for _, c := range m.counts {
				p.Count += c
			}
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
