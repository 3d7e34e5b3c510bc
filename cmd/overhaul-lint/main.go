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
//	0  clean — no findings
//	1  findings
//	2  driver error: bad usage, unloadable tree (syntax or type error)
//
// -sarif also writes the finding set as SARIF 2.1.0 for CI artifact
// upload. The driver only reports; it never rewrites sources. The one
// way to accept a finding is an annotation in source,
//
//	//overhaul:allow <analyzer> <reason>
//
// on or directly above the offending line. An annotation without a
// reason, or one that suppresses no finding of an analyzer that ran,
// is itself a finding under the pseudo-analyzer "allow".
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
	sarifPath := flags.String("sarif", "", "write findings as SARIF 2.1.0 to this file (- for stdout)")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
		return 2
	}

	roots := flags.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}

	var diags []analysis.Diagnostic
	for _, root := range roots {
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		mod, err := analysis.Load(root)
		if err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
		diags = append(diags, analysis.Run(mod, analyzers)...)
	}

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

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "overhaul-lint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "%d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
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
