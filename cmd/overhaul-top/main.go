// Command overhaul-top is the observability console for a simulated
// Overhaul system: it boots the default enforcing machine with a
// telemetry recorder attached, replays a deterministic interaction
// workload (clicks, sensitive-device opens, a stale open that denies),
// and renders what the enforcement stack recorded — metrics, decision-
// path traces, and the flight recorder's post-mortem dumps.
//
// Because the whole system runs on a virtual clock with sequential
// trace IDs, the output is byte-for-byte reproducible: two invocations
// with the same flags print the same bytes.
//
//	overhaul-top           # dashboard: metrics, traces, flight dumps
//	overhaul-top -json     # the full telemetry snapshot as JSON
//	overhaul-top -trace 4  # the span tree of the trace containing span 4
//	overhaul-top -watch    # re-render the dashboard after each round
//
// Probe mode attaches an eBPF-style probe before the workload runs and
// prints the matched event stream afterwards — the live-tracing path:
//
//	overhaul-top -probe ""                          # match-all firehose
//	overhaul-top -probe "hook=kernel.decide verdict=deny"
//	overhaul-top -probe "op=open dev=mic"           # device opens only
//
// Fleet mode aggregates across many sessions instead of tracing one
// system: it boots a fleet, replays a deterministic traffic mix into
// every session, and prints fleet-wide totals plus the sessions with
// the most denials (the malware signature an operator hunts for).
//
//	overhaul-top -fleet 64                # fleet totals + top sessions
//	overhaul-top -fleet 64 -mix bot-storm # a hostile mix
//	overhaul-top -fleet 64 -session 7     # one session's counters + audit
//	overhaul-top -fleet 64 -json          # the whole aggregation as JSON
//
// Store mode queries a durable audit store directory (written by
// overhaul-chaos -store, or by fleet mode with -store) with no live
// system at all — the post-incident forensics path:
//
//	overhaul-top -store DIR                          # the whole recovered trail
//	overhaul-top -store DIR -verdict deny -limit 20  # recent denials
//	overhaul-top -store DIR -since 5m -pid 42        # one process, recent window
//	overhaul-top -fleet 64 -store DIR -session 7     # a session's durable trail
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit the full telemetry snapshot as JSON")
	traceSpan := flag.Uint64("trace", 0, "print the span tree of the trace containing this span ID")
	watch := flag.Bool("watch", false, "render the dashboard after every workload round")
	rounds := flag.Int("rounds", 3, "number of interaction rounds to replay")
	fleetN := flag.Int("fleet", 0, "fleet mode: boot this many sessions and aggregate across them")
	fleetEvents := flag.Int("events", 200, "fleet mode: mix events replayed per session")
	fleetMix := flag.String("mix", "poisson-desks", "fleet mode: traffic mix to replay")
	session := flag.Uint64("session", 0, "fleet/store mode: restrict to this one session")
	storeDir := flag.String("store", "", "query a durable audit store directory (with -fleet: sink every session into it first)")
	cold := flag.Bool("cold", false, "store query: stream sealed segments directly (footer seek, no index build)")
	since := flag.String("since", "", "store query: RFC3339 instant, or a duration back from the newest record (e.g. 5m)")
	pid := flag.Int("pid", 0, "store query: only this pid")
	verdict := flag.String("verdict", "", "store query: only this verdict (grant|deny)")
	reason := flag.String("reason", "", "store query: only reasons containing this substring")
	limit := flag.Int("limit", 0, "store query: cap the records printed (0 = all)")
	probeSpec := flag.String("probe", "-", `attach a probe spec (e.g. "hook=kernel.decide verdict=deny"; "" = match all) and print its events after the workload`)
	flag.Parse()
	probeOn := *probeSpec != "-"

	q := storeQuery{
		since: *since, pid: *pid, verdict: *verdict,
		reason: *reason, session: *session, limit: *limit,
	}
	if *fleetN > 0 {
		return runFleet(*fleetN, *fleetEvents, *fleetMix, *session, *jsonOut, *storeDir)
	}
	if *storeDir != "" {
		if *cold {
			return runColdQuery(*storeDir, q, *jsonOut)
		}
		return runStoreQuery(*storeDir, q, *jsonOut)
	}
	if *session != 0 {
		fmt.Fprintln(os.Stderr, "overhaul-top: -session requires -fleet or -store")
		return 2
	}

	clk := clock.NewSimulated()
	tel := telemetry.New(clk)
	var (
		reg       *probe.Registry
		probeRing *probe.Ring
	)
	if probeOn {
		reg = probe.NewRegistry()
		probeRing = probe.NewRing(4096)
		if _, err := reg.AttachSpec(*probeSpec, probeRing); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
	}
	sys, err := core.Boot(core.Options{
		Clock:       clk,
		Enforce:     true,
		AlertSecret: "tabby-cat",
		Telemetry:   tel,
		Probes:      reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	app, err := sys.Launch("recorder")
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	sys.Settle(1500 * time.Millisecond)

	for i := 1; i <= *rounds; i++ {
		round(sys, app, mic)
		if *watch && !*jsonOut && *traceSpan == 0 {
			fmt.Printf("── round %d/%d ──\n", i, *rounds)
			dashboard(tel)
		}
	}

	switch {
	case *jsonOut:
		if code := writeJSON(tel.Snapshot()); code != 0 {
			return code
		}
	case *traceSpan != 0:
		id, ok := tel.TraceOf(probe.SpanID(*traceSpan))
		if !ok {
			fmt.Fprintf(os.Stderr, "overhaul-top: no span %d recorded\n", *traceSpan)
			return 1
		}
		fmt.Printf("trace %d (via span %d):\n", id, *traceSpan)
		fmt.Print(telemetry.FormatTrace(tel.TraceSpans(id)))
	case !*watch:
		dashboard(tel)
	}
	if probeOn && !*jsonOut && *traceSpan == 0 {
		printProbes(reg, probeRing)
	}
	return 0
}

// printProbes renders the attached probes and the event stream their
// rings captured during the workload.
func printProbes(reg *probe.Registry, ring *probe.Ring) {
	fmt.Println("== probes ==")
	for _, info := range reg.List() {
		spec := info.Spec
		if spec == "" {
			spec = "(match all)"
		}
		fmt.Printf("probe %d %s hooks=%d matched=%d dropped=%d\n",
			info.ID, spec, len(info.Hooks), info.Matched, info.Dropped)
	}
	buf := make([]probe.Event, 256)
	for {
		n := ring.ReadBatch(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			fmt.Println(buf[i].Format())
		}
	}
}

// round replays one deterministic interaction sequence: a click that
// stamps the process, a microphone open inside δ (grant + alert), then
// a second open after the stamp went stale (deny + flight dump).
func round(sys *core.System, app *core.App, mic string) {
	_ = app.Click()
	sys.Settle(50 * time.Millisecond)
	if h, err := app.OpenDevice(mic); err == nil {
		_ = h.Close()
	}
	sys.Settle(3 * time.Second) // δ expires: the stamp is stale now
	if h, err := app.OpenDevice(mic); err == nil {
		_ = h.Close()
	}
	sys.Settle(5 * time.Second) // let the alerts expire between rounds
}

// dashboard renders the human-readable console view.
func dashboard(tel *telemetry.Recorder) {
	snap := tel.Snapshot()
	fmt.Println("== metrics ==")
	fmt.Print(telemetry.FormatMetrics(snap.Metrics))
	fmt.Println("== traces ==")
	printTraces(tel, snap)
	fmt.Println("== flight ==")
	if len(snap.Dumps) == 0 {
		fmt.Println("(no dumps)")
		return
	}
	for _, d := range snap.Dumps {
		fmt.Printf("dump %d at %s: %s\n", d.Seq, d.Time.Format("15:04:05.000000"), d.Reason)
	}
	last := snap.Dumps[len(snap.Dumps)-1]
	fmt.Printf("last dump (%d events):\n", len(last.Events))
	fmt.Print(telemetry.FormatFlight(last.Events))
}

// printTraces lists every recorded trace as an indented span tree.
func printTraces(tel *telemetry.Recorder, snap telemetry.Snapshot) {
	seen := map[probe.TraceID]bool{}
	for _, s := range snap.Spans {
		if seen[s.Trace] {
			continue
		}
		seen[s.Trace] = true
		spans := tel.TraceSpans(s.Trace)
		fmt.Printf("trace %d (%d spans, subsystems %v):\n",
			s.Trace, len(spans), telemetry.Subsystems(spans))
		fmt.Print(telemetry.FormatTrace(spans))
	}
	if len(seen) == 0 {
		fmt.Println("(no traces)")
	}
	if snap.SpansDropped > 0 {
		fmt.Printf("(%d spans dropped)\n", snap.SpansDropped)
	}
}
