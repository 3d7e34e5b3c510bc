// Command overhaul-benchjson converts `go test -bench -benchmem`
// output into the machine-readable BENCH_overhaul.json the repository
// keeps at its root: a map from benchmark name to ns/op, allocs/op and
// any metric the benchmark reported through b.ReportMetric.
//
//	go test -bench=. -benchmem -run='^$' ./... > bench.out
//	overhaul-benchjson -in bench.out -out BENCH_overhaul.json
//
// Each -out run also appends its rows, keyed by `git rev-parse HEAD`,
// as one line of BENCH_history.jsonl beside the JSON, so drift shows.
//
// The parse is strict: zero recognisable benchmark lines, or a line
// that starts like a benchmark but fails to parse, is an error — CI
// runs this to fail on malformed bench output rather than silently
// recording nothing. The -check mode validates an existing JSON file
// instead of writing one; the -diff mode compares parsed input against
// a committed baseline and fails on micro-benchmark regressions.
//
// go test appends -N to a benchmark name whenever it ran at GOMAXPROCS
// N > 1. When the same parse also saw the bare name (as -cpu 1 prints
// it), the whole family is recognisably a CPU-scaling sweep and every
// member is rekeyed to Name/cpus=N (the bare row becomes /cpus=1), so
// the JSON records the scaling curve under stable, unambiguous keys.
// Any other name ending in -P, where P is this process's GOMAXPROCS
// (the one go test shares when both run on the same host), has the
// suffix stripped, so rows recorded on hosts with different CPU
// counts share keys. A lone -N with N ≠ P is left verbatim: it may be
// a sub-benchmark like cap-256, which is syntactically identical.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded cost. Metrics holds whatever the
// benchmark reported through b.ReportMetric, keyed by unit.
type Entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "-", "bench output to parse ('-' = stdin)")
	out := flag.String("out", "BENCH_overhaul.json", "JSON file to write")
	check := flag.String("check", "", "validate this existing JSON file and exit")
	diff := flag.String("diff", "", "baseline JSON to compare the parsed input against (regression gate)")
	flag.Parse()

	if *check != "" {
		if err := validate(*check); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
			return 1
		}
		return 0
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	entries, err := parse(r, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
		return 1
	}

	if *diff != "" {
		baseline, err := readEntries(*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
			return 1
		}
		if err := compare(baseline, entries, runtime.NumCPU(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
			return 1
		}
		return 0
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
		return 1
	}
	commit := "unknown"
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(head))
	}
	if err := appendHistory(filepath.Join(filepath.Dir(*out), "BENCH_history.jsonl"), commit, entries); err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-benchjson:", err)
		return 1
	}
	fmt.Printf("wrote %s: %d benchmarks\n", *out, len(entries))
	return 0
}

// appendHistory appends entries to the drift log at path as one JSON
// line keyed by commit.
func appendHistory(path, commit string, entries map[string]Entry) error {
	line, err := json.Marshal(map[string]any{"commit": commit, "benchmarks": entries})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// parseLine parses one result line: the name, the iteration count,
// then value-unit pairs — ns/op first, any b.ReportMetric units, and
// B/op and allocs/op under -benchmem, e.g.
// BenchmarkStoreReopen/file/1000-8  2000  714563 ns/op  44.41 heapB/rec  218032 B/op  876 allocs/op
func parseLine(line string) (string, Entry, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || f[3] != "ns/op" {
		return "", Entry{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
		return "", Entry{}, fmt.Errorf("malformed iteration count in %q: %v", line, err)
	}
	var e Entry
	for i := 2; i < len(f); i += 2 {
		unit := f[i+1]
		if unit == "allocs/op" {
			n, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return "", Entry{}, fmt.Errorf("malformed allocs/op in %q: %v", line, err)
			}
			e.AllocsPerOp = n
			continue
		}
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Entry{}, fmt.Errorf("malformed %s in %q: %v", unit, line, err)
		}
		switch unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
		default:
			if e.Metrics == nil {
				e.Metrics = make(map[string]float64)
			}
			e.Metrics[unit] = v
		}
	}
	return f[0], e, nil
}

// parse extracts every benchmark line, keyed by the benchmark name as
// go test printed it less the GOMAXPROCS suffix (see normalizeCPUFamilies),
// for a run at GOMAXPROCS procs. A name appearing more than once
// (go test -count=N) keeps the minimum ns/op and the maximum
// allocs/op: the minimum is the standard low-noise wall-clock
// statistic on a shared machine (noise only ever adds time), while
// allocs must be pessimistic — a single run that allocated more is a
// real behavior, not noise. A reported metric keeps its maximum too:
// the ones recorded here count a cost, such as heap bytes per record.
func parse(r io.Reader, procs int) (map[string]Entry, error) {
	entries := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		// A bare "BenchmarkFoo" line (no fields yet) precedes the result
		// line in verbose output; skip it, but flag anything else that
		// looks like a result and does not parse.
		if !strings.Contains(line, "ns/op") {
			continue
		}
		name, e, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if prev, ok := entries[name]; ok {
			e.NsPerOp = min(e.NsPerOp, prev.NsPerOp)
			e.AllocsPerOp = max(e.AllocsPerOp, prev.AllocsPerOp)
			for unit, v := range prev.Metrics {
				if w, ok := e.Metrics[unit]; !ok || v > w {
					if e.Metrics == nil {
						e.Metrics = make(map[string]float64)
					}
					e.Metrics[unit] = v
				}
			}
		}
		entries[name] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no benchmark lines found: was the input produced by go test -bench -benchmem?")
	}
	return normalizeCPUFamilies(entries, procs), nil
}

// cpuSuffix matches a trailing -N as printed by go test under -cpu.
var cpuSuffix = regexp.MustCompile(`^(Benchmark\S*?)-(\d+)$`)

// normalizeCPUFamilies rekeys CPU-scaling sweeps to Name/cpus=N. A
// suffixed name counts as part of a sweep only when its bare base name
// was parsed too — that is exactly what a `-cpu 1,...` run produces and
// what a same-named sub-benchmark cannot. Outside a sweep, a -<procs>
// suffix is the GOMAXPROCS go test appended to every name of the run
// and is stripped; procs ≤ 1 strips nothing, since go test appends no
// suffix at GOMAXPROCS 1. Sweep detection runs on the names as printed,
// so a stripped name never anchors a sweep of its own: X/cap-2 and
// X/cap-256-2 become X/cap and X/cap-256, not X/cap/cpus=256.
func normalizeCPUFamilies(entries map[string]Entry, procs int) map[string]Entry {
	out := make(map[string]Entry, len(entries))
	rebased := make(map[string]bool) // bare names that anchor a sweep
	for name := range entries {
		if m := cpuSuffix.FindStringSubmatch(name); m != nil {
			if _, ok := entries[m[1]]; ok {
				rebased[m[1]] = true
			}
		}
	}
	suffix := "-" + strconv.Itoa(procs)
	for name, e := range entries {
		m := cpuSuffix.FindStringSubmatch(name)
		switch {
		case m != nil && rebased[m[1]]:
			out[m[1]+"/cpus="+m[2]] = e
		case rebased[name]:
			out[name+"/cpus=1"] = e
		case procs > 1 && m != nil && strings.HasSuffix(name, suffix):
			out[m[1]] = e
		default:
			out[name] = e
		}
	}
	return out
}

// Regression-gate policy: the micro benchmarks below are the decision
// path's committed performance contract; anything slower than 25 % over
// baseline, or allocating more, fails the gate. The macro/ablation
// benchmarks are excluded — they measure simulated workloads whose
// ns/op are dominated by configured synthetic work.
//
// A relative budget is only signal above the timer's noise floor: on a
// sub-ns row (an unattached probe hook is one atomic load, ~0.6 ns) a
// 25 % budget is 0.15 ns — below what back-to-back runs on the same
// machine reproduce. Deltas under nsFloor are therefore not gated on
// ns/op (allocs/op still are), mirroring the multiview gate's
// pct-AND-absolute-floor rule.
const (
	maxNsRatio = 1.25
	nsFloor    = 10.0 // ns/op: absolute delta below this is noise, not regression
)

var gatedPrefixes = []string{"BenchmarkMicro", "BenchmarkDecide", "BenchmarkParallel", "BenchmarkFleet",
	"BenchmarkStore", "BenchmarkProbe", "BenchmarkAlertRoundTrip", "BenchmarkClock", "BenchmarkKernel"}

func gated(name string) bool {
	for _, p := range gatedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// cpusKey matches the /cpus=N suffix normalizeCPUFamilies produces.
var cpusKey = regexp.MustCompile(`/cpus=(\d+)$`)

// oversubscribed reports whether the entry was measured with more
// GOMAXPROCS than the host has hardware threads. Such runs exist to
// show the hot path holds no lock to convoy on, but their wall clock
// is scheduler noise — N goroutines timeslicing one core — so the
// regression gate checks only their allocs.
func oversubscribed(name string, hostCPUs int) bool {
	m := cpusKey.FindStringSubmatch(name)
	if m == nil {
		return false
	}
	n, err := strconv.Atoi(m[1])
	return err == nil && n > hostCPUs
}

// allocsOnly reports whether the entry's wall clock is excluded from
// the gate. The per-scale store tables (BenchmarkStore*) record
// scaling shape, but their ops sit outside the band where a 25 % wall
// budget is signal on a shared runner: Get/Scan at small scales are
// tens of ns (below the frequency-scaling noise floor), Append is
// write()-syscall- and GC-bound. Their allocation contract is still
// gated strictly, as is ns/op for every decision-path benchmark.
func allocsOnly(name string) bool {
	return strings.HasPrefix(name, "BenchmarkStore")
}

// zeroAllocRequired names the benchmarks whose allocation count is an
// absolute contract, not merely no-worse-than-baseline: the v2 frame
// encoder runs once per record inside every group commit, so a single
// allocation there multiplies across everything the fleet ever
// appends; and an instrumented decision — grant or deny, consumed by
// the telemetry recorder or published to a probe ring — runs once per
// mediated access, so an allocation there (the flight dump once copied
// the whole ring) is paid on every one; so is the pipe hop and alert
// round trip of every desk grant, and the system clock read that
// every mediated access on a desk makes. Gated in both validate (the
// committed JSON) and compare (fresh runs), so a regression cannot
// slip in by first regressing the baseline.
func zeroAllocRequired(name string) bool {
	switch name {
	case "BenchmarkStoreEncodeV2", "BenchmarkDecideTelemetryEnabled",
		"BenchmarkDecideTelemetryEnabledDeny", "BenchmarkDecideProbeAttached",
		"BenchmarkMicroPipePropagation", "BenchmarkAlertRoundTrip",
		"BenchmarkClockSystemNow":
		return true
	}
	return strings.HasPrefix(name, "BenchmarkStoreEncodeV2/")
}

// compare prints a gated-benchmark comparison table and errors when any
// current entry regresses beyond the policy above. Only names present
// in both maps are compared: a freshly added benchmark has no baseline
// yet, and a retired one no longer has a current measurement.
func compare(baseline, current map[string]Entry, hostCPUs int, w io.Writer) error {
	var names []string
	for name := range current {
		if _, ok := baseline[name]; ok && gated(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no gated benchmarks in common with the baseline")
	}
	var bad []string
	for _, name := range names {
		b, c := baseline[name], current[name]
		ratio := c.NsPerOp / b.NsPerOp
		status := "ok"
		switch {
		case zeroAllocRequired(name) && c.AllocsPerOp != 0:
			status = fmt.Sprintf("REGRESSION: allocs/op %d, contract requires 0", c.AllocsPerOp)
			bad = append(bad, name)
		case c.AllocsPerOp > b.AllocsPerOp:
			status = fmt.Sprintf("REGRESSION: allocs/op %d > baseline %d", c.AllocsPerOp, b.AllocsPerOp)
			bad = append(bad, name)
		case ratio > maxNsRatio && oversubscribed(name, hostCPUs):
			status = "ok (ns/op not gated: oversubscribed on this host)"
		case ratio > maxNsRatio && allocsOnly(name):
			status = "ok (ns/op not gated: allocs-only row)"
		case ratio > maxNsRatio && c.NsPerOp-b.NsPerOp < nsFloor:
			status = fmt.Sprintf("ok (ns/op not gated: +%.1f ns delta below %.0f ns noise floor)", c.NsPerOp-b.NsPerOp, nsFloor)
		case ratio > maxNsRatio:
			status = fmt.Sprintf("REGRESSION: ns/op %.2fx > %.2fx budget", ratio, maxNsRatio)
			bad = append(bad, name)
		}
		fmt.Fprintf(w, "%-55s %9.1f -> %9.1f ns/op (%.2fx)  %d -> %d allocs/op  %s\n",
			name, b.NsPerOp, c.NsPerOp, ratio, b.AllocsPerOp, c.AllocsPerOp, status)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed: %s", len(bad), strings.Join(bad, ", "))
	}
	return nil
}

// readEntries loads a benchmark JSON file as written by this command.
func readEntries(path string) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries map[string]Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return entries, nil
}

// validate checks an existing JSON file: a flat map of benchmark
// entries, as -out writes and overhaul-multiview -json emits.
func validate(path string) error {
	entries, err := readEntries(path)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", path)
	}
	for name, e := range entries {
		if !strings.HasPrefix(name, "Benchmark") {
			return fmt.Errorf("%s: entry %q does not name a benchmark", path, name)
		}
		if e.NsPerOp <= 0 {
			return fmt.Errorf("%s: %s has non-positive ns/op %v", path, name, e.NsPerOp)
		}
		if e.AllocsPerOp < 0 {
			return fmt.Errorf("%s: %s has negative allocs/op %d", path, name, e.AllocsPerOp)
		}
		if zeroAllocRequired(name) && e.AllocsPerOp != 0 {
			return fmt.Errorf("%s: %s records %d allocs/op, contract requires 0", path, name, e.AllocsPerOp)
		}
	}
	return nil
}
