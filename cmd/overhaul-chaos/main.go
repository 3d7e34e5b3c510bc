// Command overhaul-chaos runs a seeded fault-injection campaign
// against a freshly booted Overhaul system and reports whether the
// fail-closed invariants held: no grant without a fresh hardware-input
// stamp, and no silent denial without an audit record or a
// protection-degraded alert.
//
// The run is fully deterministic: the seed fixes the fault schedule,
// the operation script and (through the virtual clock) every
// timestamp, so any failure reproduces exactly from the printed seed.
//
// Exit status: 0 when every invariant held, 1 on violations, 2 on
// harness errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"overhaul/internal/faultinject"
	"overhaul/internal/faultinject/chaos"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "campaign seed (fault schedule, op script, clock)")
	steps := flag.Int("steps", chaos.DefaultSteps, "number of scripted operations")
	kill := flag.Int("kill", 0, "sever the kernel-X channel before this step (0 = never)")
	reconnect := flag.Int("reconnect", 0, "re-establish the channel before this step (0 = never)")
	faults := flag.String("faults", "default",
		"fault rules: 'default', 'none', or a spec like 'netlink.user_to_kernel:drop:prob=0.1,devfs.helper_crash:crash:after=3'")
	threshold := flag.Duration("threshold", 0, "grant window δ (0 = monitor default)")
	storeDir := flag.String("store", "", "sink the audit stream into a durable store at this directory (queryable with overhaul-top -store)")
	storeSegment := flag.Int("store-segment", 0, "store segment size in records (0 = campaign default)")
	jsonOut := flag.Bool("json", false, "emit the full result as JSON")
	verbose := flag.Bool("v", false, "print the per-step event log")
	flag.Parse()

	rules, err := parseFaults(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-chaos:", err)
		return 2
	}

	res, err := chaos.Run(chaos.Campaign{
		Seed:          *seed,
		Steps:         *steps,
		Rules:         rules,
		KillChannelAt: *kill,
		ReconnectAt:   *reconnect,
		Threshold:     *threshold,
		StoreDir:      *storeDir,
		StoreSegment:  *storeSegment,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-chaos:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-chaos:", err)
			return 2
		}
	} else {
		report(res, *verbose)
	}
	if !res.Ok() {
		return 1
	}
	return 0
}

// parseFaults expands the -faults spec. "none" (or empty) arms
// nothing; a "default" entry anywhere in the comma-separated list
// splices in the standard mix, so extra rules can ride along:
// "default,auditstore.append:error:prob=0.05".
func parseFaults(spec string) ([]faultinject.Rule, error) {
	if spec == "none" || spec == "" {
		return nil, nil
	}
	var rules []faultinject.Rule
	var rest []string
	for _, entry := range strings.Split(spec, ",") {
		if strings.TrimSpace(entry) == "default" {
			rules = append(rules, faultinject.DefaultRules()...)
			continue
		}
		rest = append(rest, entry)
	}
	parsed, err := faultinject.ParseRules(strings.Join(rest, ","))
	if err != nil {
		return nil, err
	}
	return append(rules, parsed...), nil
}

func report(res *chaos.Result, verbose bool) {
	fmt.Printf("chaos campaign: seed=%d steps=%d\n", res.Seed, res.Steps)
	if verbose {
		for _, e := range res.Events {
			fmt.Println(e)
		}
		fmt.Println("fault schedule:")
		fmt.Print(res.Schedule)
	}
	fmt.Printf("monitor: %d queries, %d grants, %d denials (%d degraded)\n",
		res.Monitor.Queries, res.Monitor.Grants, res.Monitor.Denials,
		res.Monitor.DegradedDenials)
	fmt.Printf("faults:  %d injected; alerts: %d shown, %d render failures\n",
		injected(res.Schedule), res.X.AlertsShown, res.X.AlertRenderFailures)
	if res.Degraded {
		fmt.Println("state:   monitor DEGRADED (fail closed) at end of run")
	}
	if res.StoreRecords > 0 || res.StoreFaults > 0 {
		fmt.Printf("store:   %d records durable; %d injected faults, %d recoveries by reopen\n",
			res.StoreRecords, res.StoreFaults, res.StoreReopens)
	}
	if len(res.Flight) > 0 && (verbose || !res.Ok()) {
		fmt.Printf("flight:  %d dump(s) taken; last dump:\n", res.FlightDumps)
		for _, l := range res.Flight {
			fmt.Println("  " + l)
		}
	}
	if res.Ok() {
		fmt.Println("result:  OK — all fail-closed invariants held")
		return
	}
	fmt.Printf("result:  %d INVARIANT VIOLATION(S)\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  step %d [%s]: %s\n", v.Step, v.Invariant, v.Detail)
	}
	fmt.Printf("reproduce with: overhaul-chaos -seed %d -steps %d\n", res.Seed, res.Steps)
}

// injected counts schedule lines, each of which is one fault event.
func injected(schedule string) int {
	n := 0
	for _, c := range schedule {
		if c == '\n' {
			n++
		}
	}
	return n
}
