// Command overhaul-multiview runs the probe layer's libMicro-style
// multiview overhead report: every probe-hooked hot path built in three
// modes (probes off, attached-idle, attached-matching with full
// telemetry), idle and match each timed against off in paired chunks,
// and — with -gate — the median off→idle overhead held to the 10%
// budget per benchmark.
//
// Usage:
//
//	overhaul-multiview [-json FILE] [-html FILE] [-gate]
//
// The -json document is compatible with overhaul-benchjson -check.
package main

import (
	"flag"
	"fmt"
	"os"

	"overhaul/internal/multiview"
)

func main() {
	var (
		jsonP = flag.String("json", "", "write benchjson-compatible results to this file")
		htmlP = flag.String("html", "", "write the HTML comparison report to this file")
		gate  = flag.Bool("gate", false, "exit 1 if any benchmark's off→idle overhead exceeds the budget")
	)
	flag.Parse()

	if err := run(*jsonP, *htmlP, *gate); err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-multiview:", err)
		os.Exit(1)
	}
}

func run(jsonPath, htmlPath string, gate bool) error {
	rep, err := multiview.Run()
	if err != nil {
		return err
	}
	fmt.Print(rep.Text())

	if jsonPath != "" {
		out, err := rep.BenchJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if htmlPath != "" {
		out, err := rep.HTML()
		if err != nil {
			return err
		}
		if err := os.WriteFile(htmlPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", htmlPath)
	}
	if gate {
		if fails := rep.Gate(); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "GATE FAIL:", f)
			}
			return fmt.Errorf("%d of %d benchmarks over the %.0f%% off→idle budget", len(fails), len(rep.Rows), multiview.BudgetPct)
		}
		fmt.Printf("gate ok: all %d benchmarks within the %.0f%% off→idle budget\n", len(rep.Rows), multiview.BudgetPct)
	}
	return nil
}
