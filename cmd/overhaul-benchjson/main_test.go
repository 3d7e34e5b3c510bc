package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const cpuSweepOutput = `goos: linux
BenchmarkParallelDecide         	 1000000	       120.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkParallelDecide-2       	 2000000	        70.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkParallelDecide-4       	 4000000	        40.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSpanRing/cap-256       	  500000	       300.0 ns/op	      16 B/op	       1 allocs/op
BenchmarkMicroMonitorDecide     	  500000	       700.0 ns/op	       8 B/op	       1 allocs/op
PASS
`

func TestParseRekeysCPUSweeps(t *testing.T) {
	entries, err := parse(strings.NewReader(cpuSweepOutput), 1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for name, ns := range map[string]float64{
		"BenchmarkParallelDecide/cpus=1": 120.0,
		"BenchmarkParallelDecide/cpus=2": 70.0,
		"BenchmarkParallelDecide/cpus=4": 40.0,
	} {
		e, ok := entries[name]
		if !ok {
			t.Fatalf("missing rekeyed entry %q in %v", name, entries)
		}
		if e.NsPerOp != ns {
			t.Errorf("%s ns/op = %v, want %v", name, e.NsPerOp, ns)
		}
	}
	if _, ok := entries["BenchmarkParallelDecide"]; ok {
		t.Error("bare sweep name survived rekeying")
	}
	// A numeric sub-benchmark without a bare sibling stays verbatim.
	if _, ok := entries["BenchmarkSpanRing/cap-256"]; !ok {
		t.Errorf("sub-benchmark name was rewritten: %v", entries)
	}
	if _, ok := entries["BenchmarkMicroMonitorDecide"]; !ok {
		t.Error("plain benchmark missing")
	}
}

func TestParseMergesRepeatedRuns(t *testing.T) {
	// go test -count=3 repeats every benchmark line; the converter must
	// keep the minimum ns/op (noise only adds time) and the maximum
	// allocs/op (an extra alloc in any run is real).
	entries, err := parse(strings.NewReader(`
BenchmarkMicroMonitorDecide  500000  700.0 ns/op  8 B/op  1 allocs/op
BenchmarkMicroMonitorDecide  500000  430.0 ns/op  8 B/op  2 allocs/op
BenchmarkMicroMonitorDecide  500000  950.0 ns/op  8 B/op  1 allocs/op
PASS
`), 1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, ok := entries["BenchmarkMicroMonitorDecide"]
	if !ok {
		t.Fatalf("missing entry: %v", entries)
	}
	if e.NsPerOp != 430.0 {
		t.Errorf("ns/op = %v, want min 430.0", e.NsPerOp)
	}
	if e.AllocsPerOp != 2 {
		t.Errorf("allocs/op = %v, want max 2", e.AllocsPerOp)
	}
}

func TestParseReportedMetrics(t *testing.T) {
	// b.ReportMetric units sit between ns/op and B/op; they must not
	// hide the allocs/op after them, and repeats keep their maximum.
	entries, err := parse(strings.NewReader(`
BenchmarkStoreReopen/file/1000  2000  714563 ns/op  44.41 heapB/rec  218032 B/op  876 allocs/op
BenchmarkStoreReopen/file/1000  2000  702000 ns/op  46.00 heapB/rec  218032 B/op  870 allocs/op
BenchmarkAblationShmWait/1ms    2000  1200 ns/op    3.000 faults    48 B/op  2 allocs/op
PASS
`), 1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]Entry{
		"BenchmarkStoreReopen/file/1000": {NsPerOp: 702000, AllocsPerOp: 876, Metrics: map[string]float64{"heapB/rec": 46}},
		"BenchmarkAblationShmWait/1ms":   {NsPerOp: 1200, AllocsPerOp: 2, Metrics: map[string]float64{"faults": 3}},
	}
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("parse = %+v, want %+v", entries, want)
	}
	if _, err := parse(strings.NewReader("BenchmarkX  100  5 ns/op  7 heapB/rec  8\n"), 1); err == nil {
		t.Fatal("a value without a unit parsed")
	}
}

func TestParseKeepsLoneSuffixVerbatim(t *testing.T) {
	// Without the bare sibling, and on a host whose GOMAXPROCS is not
	// 8, -8 is indistinguishable from a sub-benchmark name and must not
	// be rewritten.
	entries, err := parse(strings.NewReader(
		"BenchmarkDecideTelemetryDisabled-8  9416926  120.7 ns/op  0 B/op  0 allocs/op\n"), 2)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := entries["BenchmarkDecideTelemetryDisabled-8"]; !ok {
		t.Fatalf("lone suffixed name rewritten: %v", entries)
	}
}

func TestParseStripsGOMAXPROCSSuffix(t *testing.T) {
	// A plain run at GOMAXPROCS 2 suffixes every name with -2, and the
	// -cpu 1,2,4 sweep appended to it repeats the Parallel rows bare,
	// -2 and -4. The suffix comes off everything outside the sweep —
	// once: cap-256-2 is cap-256, and cap-2 does not make it a sweep.
	entries, err := parse(strings.NewReader(`
BenchmarkAblationAuditCapacity/cap-2-2     1000  50.0 ns/op  0 B/op  0 allocs/op
BenchmarkAblationAuditCapacity/cap-256-2   1000  88.0 ns/op  0 B/op  0 allocs/op
BenchmarkFleetDecide/sessions=10-2         1000  90.0 ns/op  0 B/op  0 allocs/op
BenchmarkParallelDecide-2                  1000  75.0 ns/op  0 B/op  0 allocs/op
BenchmarkParallelDecide                    1000 120.0 ns/op  0 B/op  0 allocs/op
BenchmarkParallelDecide-2                  1000  70.0 ns/op  0 B/op  0 allocs/op
BenchmarkParallelDecide-4                  1000  40.0 ns/op  0 B/op  0 allocs/op
BenchmarkStoreGet/file/1000-4              1000  30.0 ns/op  0 B/op  0 allocs/op
PASS
`), 2)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]float64{
		"BenchmarkAblationAuditCapacity/cap-2":   50,
		"BenchmarkAblationAuditCapacity/cap-256": 88,
		"BenchmarkFleetDecide/sessions=10":       90,
		"BenchmarkParallelDecide/cpus=1":         120,
		"BenchmarkParallelDecide/cpus=2":         70,
		"BenchmarkParallelDecide/cpus=4":         40,
		"BenchmarkStoreGet/file/1000-4":          30, // not this run's GOMAXPROCS
	}
	if len(entries) != len(want) {
		t.Fatalf("got %d entries %v, want %d", len(entries), entries, len(want))
	}
	for name, ns := range want {
		if e, ok := entries[name]; !ok || e.NsPerOp != ns {
			t.Errorf("%s = %+v (present %v), want %v ns/op", name, e, ok, ns)
		}
	}
}

func TestCompareAcceptsWithinBudget(t *testing.T) {
	baseline := map[string]Entry{
		"BenchmarkMicroMonitorDecide":    {NsPerOp: 700, AllocsPerOp: 1},
		"BenchmarkParallelDecide/cpus=2": {NsPerOp: 70, AllocsPerOp: 0},
		"BenchmarkAblation/forkskew":     {NsPerOp: 100, AllocsPerOp: 5},
	}
	current := map[string]Entry{
		"BenchmarkMicroMonitorDecide":    {NsPerOp: 850, AllocsPerOp: 1}, // +21 %: inside budget
		"BenchmarkParallelDecide/cpus=2": {NsPerOp: 60, AllocsPerOp: 0},
		"BenchmarkAblation/forkskew":     {NsPerOp: 900, AllocsPerOp: 9}, // not gated
	}
	var out strings.Builder
	if err := compare(baseline, current, 8, &out); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "Ablation") {
		t.Errorf("non-gated benchmark in comparison table:\n%s", out.String())
	}
}

func TestCompareFailsOnNsRegression(t *testing.T) {
	baseline := map[string]Entry{"BenchmarkDecideTelemetryEnabled": {NsPerOp: 200, AllocsPerOp: 1}}
	current := map[string]Entry{"BenchmarkDecideTelemetryEnabled": {NsPerOp: 300, AllocsPerOp: 1}}
	var out strings.Builder
	err := compare(baseline, current, 8, &out)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("compare = %v, want ns/op regression failure", err)
	}
}

func TestCompareFailsOnAllocRegression(t *testing.T) {
	baseline := map[string]Entry{"BenchmarkMicroForkInheritance": {NsPerOp: 400, AllocsPerOp: 1}}
	current := map[string]Entry{"BenchmarkMicroForkInheritance": {NsPerOp: 380, AllocsPerOp: 2}}
	var out strings.Builder
	err := compare(baseline, current, 8, &out)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("compare = %v, want allocs/op regression failure", err)
	}
}

func TestCompareOversubscribedGatesAllocsOnly(t *testing.T) {
	// On a 1-CPU host a /cpus=4 run timeslices one core, so its wall
	// clock is scheduler noise: ns/op regressions pass, allocs still
	// gate. The in-budget /cpus=1 row keeps the gate satisfiable.
	baseline := map[string]Entry{
		"BenchmarkParallelDecide/cpus=1": {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkParallelDecide/cpus=4": {NsPerOp: 100, AllocsPerOp: 0},
	}
	current := map[string]Entry{
		"BenchmarkParallelDecide/cpus=1": {NsPerOp: 110, AllocsPerOp: 0},
		"BenchmarkParallelDecide/cpus=4": {NsPerOp: 300, AllocsPerOp: 0},
	}
	var out strings.Builder
	if err := compare(baseline, current, 1, &out); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "oversubscribed") {
		t.Errorf("oversubscribed row not marked:\n%s", out.String())
	}
	// The same 3x on a host that genuinely has 4 CPUs is a regression.
	if err := compare(baseline, current, 4, &out); err == nil {
		t.Error("3x ns/op on a 4-CPU host passed, want regression")
	}
	// An alloc regression gates regardless of oversubscription.
	current["BenchmarkParallelDecide/cpus=4"] = Entry{NsPerOp: 300, AllocsPerOp: 1}
	if err := compare(baseline, current, 1, &out); err == nil {
		t.Error("alloc regression on oversubscribed row passed, want failure")
	}
}

func TestCompareStoreRowsGateAllocsOnly(t *testing.T) {
	// The per-scale store tables are wall-clock-exempt: Get/Scan at
	// small scales are tens of ns and Append is syscall/GC-bound, so
	// only their allocation contract gates.
	baseline := map[string]Entry{"BenchmarkStoreAppend/file/100": {NsPerOp: 2500, AllocsPerOp: 5}}
	current := map[string]Entry{"BenchmarkStoreAppend/file/100": {NsPerOp: 4500, AllocsPerOp: 5}}
	var out strings.Builder
	if err := compare(baseline, current, 8, &out); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "allocs-only") {
		t.Errorf("store row not marked allocs-only:\n%s", out.String())
	}
	current["BenchmarkStoreAppend/file/100"] = Entry{NsPerOp: 2400, AllocsPerOp: 6}
	if err := compare(baseline, current, 8, &out); err == nil {
		t.Error("alloc regression on store row passed, want failure")
	}
}

func TestCompareRequiresOverlap(t *testing.T) {
	baseline := map[string]Entry{"BenchmarkMicroOld": {NsPerOp: 100}}
	current := map[string]Entry{"BenchmarkMicroNew": {NsPerOp: 100}}
	var out strings.Builder
	if err := compare(baseline, current, 8, &out); err == nil {
		t.Fatal("compare with disjoint benchmark sets succeeded, want error")
	}
}

func TestCompareZeroAllocContract(t *testing.T) {
	// The v2 frame encoder's and the instrumented decision paths' 0-alloc
	// contracts are absolute: they fail even when the baseline itself
	// had regressed to a nonzero count.
	for _, name := range zeroAllocContracts {
		baseline := map[string]Entry{name: {NsPerOp: 90, AllocsPerOp: 1}}
		current := map[string]Entry{name: {NsPerOp: 90, AllocsPerOp: 1}}
		var out strings.Builder
		if err := compare(baseline, current, 8, &out); err == nil {
			t.Errorf("%s: nonzero allocs passed, want failure", name)
		}
		current[name] = Entry{NsPerOp: 95, AllocsPerOp: 0}
		out.Reset()
		if err := compare(baseline, current, 8, &out); err != nil {
			t.Errorf("%s: 0 allocs failed: %v\n%s", name, err, out.String())
		}
	}
}

// zeroAllocContracts are the benchmarks zeroAllocRequired holds to 0
// allocs/op.
var zeroAllocContracts = []string{
	"BenchmarkStoreEncodeV2", "BenchmarkDecideTelemetryEnabled",
	"BenchmarkDecideTelemetryEnabledDeny", "BenchmarkDecideProbeAttached",
	"BenchmarkMicroPipePropagation", "BenchmarkAlertRoundTrip",
}

func TestValidateEncodeBenchZeroAlloc(t *testing.T) {
	for _, name := range zeroAllocContracts {
		p := filepath.Join(t.TempDir(), "bench.json")
		body := `{"` + name + `": {"ns_per_op": 90, "allocs_per_op": 2}}`
		if err := os.WriteFile(p, []byte(body), 0o600); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := validate(p); err == nil {
			t.Errorf("committed JSON with allocating %s passed validation", name)
		}
		body = `{"` + name + `": {"ns_per_op": 90, "allocs_per_op": 0}}`
		if err := os.WriteFile(p, []byte(body), 0o600); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := validate(p); err != nil {
			t.Errorf("committed JSON with allocation-free %s rejected: %v", name, err)
		}
	}
}

func TestAppendHistoryAddsOneLinePerRun(t *testing.T) {
	type line struct {
		Commit     string           `json:"commit"`
		Benchmarks map[string]Entry `json:"benchmarks"`
	}
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	runs := []line{
		{Commit: "aaaa", Benchmarks: map[string]Entry{"BenchmarkA": {NsPerOp: 10, AllocsPerOp: 1}}},
		{Commit: "bbbb", Benchmarks: map[string]Entry{"BenchmarkA": {NsPerOp: 9}, "BenchmarkB": {NsPerOp: 5}}},
	}
	for _, r := range runs {
		if err := appendHistory(path, r.Commit, r.Benchmarks); err != nil {
			t.Fatalf("appendHistory: %v", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != len(runs) {
		t.Fatalf("%d lines after %d appends:\n%s", len(lines), len(runs), data)
	}
	for i, text := range lines {
		var got line
		if err := json.Unmarshal([]byte(text), &got); err != nil {
			t.Fatalf("line %d is not JSON: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, runs[i]) {
			t.Errorf("line %d = %+v, want %+v", i+1, got, runs[i])
		}
	}
}
