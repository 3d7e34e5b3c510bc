// Command overhaul-lint runs the domain-specific static analyzers of
// internal/analysis over a source tree and reports invariant
// violations.
//
// Usage:
//
//	overhaul-lint [flags] [root ...]
//
// Each root is a directory scanned recursively (a trailing /... is
// accepted and ignored, so ./... works); the default is the current
// directory. Every root is parsed and type-checked before any analyzer
// runs; a syntax or type error in it is a driver error naming the file
// and line. Diagnostics print as file:line:col: analyzer: message, or
// as a JSON array with -json.
//
// Exit status is part of the contract:
//
//	0  clean — no findings, or every finding is covered by -baseline
//	1  fresh findings (regressions relative to the baseline, if any)
//	2  driver error: bad usage, unloadable tree (syntax or type
//	   error), unreadable baseline
//
// A committed baseline (-baseline lint-baseline.json) turns the gate
// into a ratchet: known findings are tolerated, new ones fail.
// Regenerate it with -write-baseline after triage. -fix applies each
// diagnostic's suggested rewrite in place (-diff previews the same
// rewrite as a unified diff without touching files). -sarif emits the
// full finding set as SARIF 2.1.0 for CI artifact upload.
//
// Findings are suppressed in source with
//
//	//overhaul:allow <analyzer> <reason>
//
// on or directly above the offending line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"overhaul/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("overhaul-lint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	jsonOut := flags.Bool("json", false, "emit diagnostics as JSON")
	list := flags.Bool("list", false, "list analyzers and exit")
	enable := flags.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flags.String("disable", "", "comma-separated analyzers to skip")
	fix := flags.Bool("fix", false, "apply suggested fixes in place (single root only)")
	diff := flags.Bool("diff", false, "print suggested fixes as a unified diff without writing")
	sarifPath := flags.String("sarif", "", "write findings as SARIF 2.1.0 to this file (- for stdout)")
	baselinePath := flags.String("baseline", "", "baseline file of known findings; only fresh findings fail")
	writeBaseline := flags.Bool("write-baseline", false, "regenerate the -baseline file from current findings and exit 0")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *fix && *diff {
		fmt.Fprintln(stderr, "overhaul-lint: -fix and -diff are mutually exclusive")
		return 2
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(stderr, "overhaul-lint: -write-baseline requires -baseline <file>")
		return 2
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
		return 2
	}

	// The baseline is loaded before any analysis so a misconfigured
	// gate (flag pointing at a missing or corrupt file) fails fast as a
	// driver error, never as a silently-empty baseline.
	var baseline *analysis.Baseline
	if *baselinePath != "" && !*writeBaseline {
		baseline, err = analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
	}

	roots := flags.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	if (*fix || *diff) && len(roots) > 1 {
		fmt.Fprintln(stderr, "overhaul-lint: -fix/-diff accept a single root (fix paths are root-relative)")
		return 2
	}

	var diags []analysis.Diagnostic
	var fixRoot string
	for _, root := range roots {
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		fixRoot = root
		mod, err := analysis.Load(root)
		if err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
		diags = append(diags, analysis.Run(mod, analyzers)...)
	}

	if *writeBaseline {
		b := analysis.NewBaseline(diags)
		if err := b.WriteBaseline(*baselinePath); err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s: %d finding(s) in %d entr(ies)\n", *baselinePath, len(diags), len(b.Entries))
		return 0
	}

	// SARIF carries the full finding set, baselined ones included: the
	// artifact is a report of everything the analyzers believe, while
	// the exit code gates only on regressions.
	if *sarifPath != "" {
		data, err := analysis.SARIF(diags, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
		if *sarifPath == "-" {
			fmt.Fprintln(stdout, string(data))
		} else if err := os.WriteFile(*sarifPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: sarif: %v\n", err)
			return 2
		}
	}

	fresh, known := diags, 0
	if baseline != nil {
		fresh, known = baseline.Filter(diags)
	}

	if *fix || *diff {
		res, err := analysis.ApplyFixes(fixRoot, fresh, *diff)
		if err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
		if *diff {
			fmt.Fprint(stdout, res.Diff)
		}
		if *fix {
			for _, f := range res.Files {
				fmt.Fprintf(stdout, "fixed %s\n", f)
			}
		}
		if res.Skipped > 0 {
			fmt.Fprintf(stderr, "overhaul-lint: %d fix(es) skipped due to overlapping edits; re-run after applying\n", res.Skipped)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if fresh == nil {
			fresh = []analysis.Diagnostic{}
		}
		if err := enc.Encode(fresh); err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range fresh {
			fmt.Fprintln(stdout, d)
		}
		if len(fresh) > 0 {
			fmt.Fprintf(stdout, "%d finding(s)\n", len(fresh))
		}
		if known > 0 {
			fmt.Fprintf(stdout, "%d known finding(s) suppressed by baseline\n", known)
		}
	}
	if len(fresh) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies the -enable / -disable flags to the suite.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	chosen := analysis.All()
	if enable != "" {
		chosen = nil
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			chosen = append(chosen, a)
		}
	}
	if disable != "" {
		skip := make(map[string]bool)
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if analysis.ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			skip[name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range chosen {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		chosen = kept
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return chosen, nil
}
