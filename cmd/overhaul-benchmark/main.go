// Command overhaul-benchmark runs the repository benchmark: four seeded
// workloads that drive the system only through its exported APIs, time
// each layer from outside around calls to that layer's public
// functions, check every workload's outputs against an oracle, and
// print every metric by name with its unit.
//
// Usage:
//
//	go run . -workload all|NAME -seed N [-seconds S] [-trace 0|1|FILE] [-json FILE]
//
// With -trace 0 (the default) each workload runs its untraced trials
// and reports the end-to-end metrics. With -trace 1 it runs one
// shortened untraced trial and one traced trial and reports the
// per-layer metrics, printing a self-time table; -trace FILE does the
// same and also writes the traced spans to FILE as JSONL. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is 1 when any check
// failed and 2 on a usage or set-up error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// config is what every workload runs with.
type config struct {
	seed     int64
	seconds  float64 // measured time per workload, split across its trials
	traced   bool
	spanCap  int       // spans one traced trial can hold
	workDir  string    // scratch directory for audit stores
	spansOut io.Writer // where traced spans go as JSONL; nil: nowhere
	// small shrinks the fleet workloads' session counts and history so
	// tests finish quickly.
	small bool
}

// trialOps sizes a closed-loop trial: trials of this many ops at rate
// (the workload's rate on the reference machine) take seconds in all.
func (c config) trialOps(rate float64, trials int) int {
	return max(1, int(c.seconds*rate/float64(trials)))
}

// defaultSpanCap bounds a traced trial's span buffer (16 MiB).
const defaultSpanCap = 1 << 19

type workloadDef struct {
	name string
	run  func(config) (*result, error)
}

var workloads = []workloadDef{
	{deskGrant.name, func(c config) (*result, error) { return runDesk(c, deskGrant) }},
	{deskSpy.name, func(c config) (*result, error) { return runDesk(c, deskSpy) }},
	{"fleet-storm", runFleetStorm},
	{"fleet-forensics", runFleetForensics},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("overhaul-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measured time per workload, split across its trials")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: traced run with per-layer metrics; FILE: traced run that also writes its spans to FILE as JSONL")
	jsonOut := fs.String("json", "", "also write the full report to this file")
	workDir := fs.String("workdir", ".bench_build/work", "scratch directory for audit stores; emptied on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "overhaul-benchmark: -seconds must be positive")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "overhaul-benchmark: unknown workload %q (want all, %s)\n", *name, workloadNames())
		return 2
	}

	cfg := config{seed: *seed, seconds: *seconds, traced: *trace != "0" && *trace != "", spanCap: defaultSpanCap}
	var spans *os.File
	if cfg.traced && *trace != "1" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "overhaul-benchmark:", err)
			return 2
		}
		spans, cfg.spansOut = f, f
		defer func() {
			if spans != nil {
				spans.Close() //overhaul:allow errdrop error path only; the run already failed
			}
		}()
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "overhaul-benchmark:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "overhaul-benchmark:", err)
		return 2
	}
	defer os.RemoveAll(dir) //overhaul:allow errdrop scratch stores; nothing to report if cleanup fails
	cfg.workDir = dir

	results, err := runAll(cfg, selected, stdout)
	if err == nil && spans != nil {
		err = spans.Close()
		spans = nil
	}
	if err != nil {
		fmt.Fprintln(stderr, "overhaul-benchmark:", err)
		return 2
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, cfg.seed, cfg.seconds, cfg.traced, results); err != nil {
			fmt.Fprintln(stderr, "overhaul-benchmark:", err)
			return 2
		}
	}
	defs := e2eMetrics
	if cfg.traced {
		defs = layerMetrics
	}
	line, err := jsonLine(summarize(results, defs))
	if err != nil {
		fmt.Fprintln(stderr, "overhaul-benchmark:", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	for _, r := range results {
		if r.failed > 0 {
			return 1
		}
	}
	return 0
}

// runAll runs the selected workloads in order, printing each one's
// metrics (and, traced, its self-time table) as it finishes.
func runAll(cfg config, selected []workloadDef, stdout io.Writer) ([]*result, error) {
	defs := e2eMetrics
	if cfg.traced {
		defs = layerMetrics
	}
	var results []*result
	for _, w := range selected {
		r, err := w.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printHuman(stdout, r, defs)
		if r.trace != nil {
			r.trace.printTable(stdout, r.workload)
		}
		results = append(results, r)
	}
	return results, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
