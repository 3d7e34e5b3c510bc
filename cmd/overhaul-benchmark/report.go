package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the system sees; every workload
// reports all of them from untraced trials.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"heap_mb", "MB"},
}

// layerMetrics come from a traced run. A metric that a workload does
// not exercise reads 0 there.
var layerMetrics = []metricDef{
	{"xserver.click_p50_ns", "ns"},
	{"xserver.click_p99_ns", "ns"},
	{"xserver.input_drain_p50_ns", "ns"},
	{"ipc.pipe_hop_p50_ns", "ns"},
	{"fs.close_p50_ns", "ns"},
	{"kernel.open_grant_p50_ns", "ns"},
	{"kernel.open_grant_p99_ns", "ns"},
	{"kernel.open_deny_p50_ns", "ns"},
	{"xserver.steal_clipboard_p50_ns", "ns"},
	{"xserver.steal_screen_p50_ns", "ns"},
	{"xserver.notifications_per_op", "count/op"},
	{"xserver.queries_per_op", "count/op"},
	{"xserver.alerts_shown_per_op", "count/op"},
	{"xserver.capture_denied_per_op", "count/op"},
	{"netlink.user_to_kernel_per_op", "count/op"},
	{"netlink.kernel_to_user_per_op", "count/op"},
	{"monitor.grants_per_op", "count/op"},
	{"monitor.denials_per_op", "count/op"},
	{"monitor.alerts_sent_per_op", "count/op"},
	{"monitor.audit_dropped", "count"},
	{"fleet.decide_p50_ns", "ns"},
	{"fleet.decide_p99_ns", "ns"},
	{"fleet.notify_p50_ns", "ns"},
	{"auditstore.append_batch_p50_us", "us"},
	{"auditstore.append_batch_p99_us", "us"},
	{"auditstore.append_batch_max_ms", "ms"},
	{"auditstore.records_per_batch", "count"},
	{"auditstore.write_bytes_per_record", "B/record"},
	{"auditstore.disk_bytes_per_record", "B/record"},
	{"auditstore.heap_bytes_per_record", "B/record"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"auditstore.query_since_p50_us", "us"},
	{"auditstore.query_deny_p50_us", "us"},
	{"auditstore.query_session_p50_us", "us"},
	{"auditstore.query_reason_p50_us", "us"},
	{"auditstore.query_reason_p99_us", "us"},
	{"auditstore.reopen_ms", "ms"},
	{"fleet.grants", "count"},
	{"fleet.denials", "count"},
	{"auditstore.records", "count"},
	{"auditstore.dropped_acks", "count"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"gen.offered_per_s", "ops/s"},
	{"runtime.allocs_per_op", "count/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"kernel.open_unmediated_p50_ns", "ns"},
	{"netlink.rtt_p50_ns", "ns"},
	{"monitor.evaluate_p50_ns", "ns"},
	{"auditstore.compactions", "count"},
	{"auditstore.cold_scan_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// result is what one workload run yields.
type result struct {
	workload  string
	attempted uint64
	failed    uint64
	failures  []string // the first few failure descriptions
	samples   uint64   // op latency samples behind the percentiles
	metrics   map[string]float64
	trials    map[string][]float64 // the per-trial and per-window values behind the end-to-end metrics
	trace     *traceSummary
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{}}
}

// fail counts n failed operations with a description.
func (r *result) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// failDiff counts the distance between an observed and an expected
// count as failures.
func (r *result) failDiff(got, want uint64, what string) {
	if got > want {
		r.fail(got-want, "%s: got %d, want %d", what, got, want)
	} else {
		r.fail(want-got, "%s: got %d, want %d", what, got, want)
	}
}

// memCounters are the runtime allocation counters a trial reports.
type memCounters struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// setRuntime reports the allocation and GC work between two readings.
func (r *result) setRuntime(a, b memCounters, ops uint64) {
	if ops > 0 {
		r.metrics["runtime.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(ops)
		r.metrics["runtime.alloc_bytes_per_op"] = float64(b.bytes-a.bytes) / float64(ops)
	}
	r.metrics["runtime.gc_cycles"] = float64(b.gcs - a.gcs)
	r.metrics["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}

// heapAfterGC returns HeapAlloc in bytes after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// writeChars reads the bytes this process has passed to write calls
// (wchar in /proc/self/io).
func writeChars() (uint64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("wchar: ")); ok {
			return strconv.ParseUint(string(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar line in /proc/self/io")
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf returns the q-quantile of xs, interpolating linearly
// between order statistics; 0 for no values.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// metricOut and summary are the machine-readable result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// summarize merges results into the result line. With one workload the
// metrics keep their names; with several each is prefixed by its
// workload.
func summarize(results []*result, defs []metricDef) summary {
	s := summary{Metrics: map[string]metricOut{}}
	for _, r := range results {
		s.Attempted += r.attempted
		s.Failed += r.failed
		for _, d := range defs {
			name := d.name
			if len(results) > 1 {
				name = r.workload + "/" + d.name
			}
			s.Metrics[name] = metricOut{Value: finite(r.metrics[d.name]), Unit: d.unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

func jsonLine(s summary) (string, error) {
	data, err := json.Marshal(s)
	return string(data), err
}

// printHuman writes one workload's metrics as an aligned table.
func printHuman(w io.Writer, r *result, defs []metricDef) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, %d latency samples\n", r.workload, r.attempted, r.failed, r.samples)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
}

// reportJSON is the full report written by -json.
type reportJSON struct {
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Workloads []workloadReportJSON `json:"workloads"`
}

type workloadReportJSON struct {
	Name      string               `json:"name"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Samples   uint64               `json:"samples"`
	Metrics   map[string]float64   `json:"metrics"`
	Trials    map[string][]float64 `json:"trials,omitempty"`
	SelfTime  []selfTimeJSON       `json:"self_time,omitempty"`
}

type selfTimeJSON struct {
	Root     string  `json:"root"`
	Layer    string  `json:"layer"`
	Spans    uint64  `json:"spans"`
	SelfMs   float64 `json:"self_ms"`
	SharePct float64 `json:"share_pct"`
}

func writeReport(path string, seed int64, seconds float64, traced bool, results []*result) error {
	rep := reportJSON{Seed: seed, Seconds: seconds, Traced: traced}
	for _, r := range results {
		w := workloadReportJSON{Name: r.workload, Attempted: r.attempted, Failed: r.failed,
			Failures: r.failures, Samples: r.samples, Metrics: map[string]float64{}, Trials: r.trials}
		for k, v := range r.metrics {
			w.Metrics[k] = finite(v)
		}
		if r.trace != nil {
			for _, row := range r.trace.rows {
				w.SelfTime = append(w.SelfTime, selfTimeJSON{row.root, row.name, row.spans, row.selfNs / 1e6, row.sharePct})
			}
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
