package chaos

import (
	"strings"
	"testing"

	"overhaul/internal/faultinject"
	"overhaul/internal/monitor"
	"overhaul/internal/telemetry"
)

// TestCampaignFaultFree checks the harness itself: with no faults and
// a healthy channel a campaign must finish with zero violations and
// actually exercise the policy in both directions.
func TestCampaignFaultFree(t *testing.T) {
	res, err := Run(Campaign{Seed: 1, Steps: 120})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("violations in fault-free campaign:\n%s", res.Transcript())
	}
	if res.Monitor.Grants == 0 {
		t.Errorf("campaign produced no grants; script is not exercising the grant path")
	}
	if res.Monitor.Denials == 0 {
		t.Errorf("campaign produced no denials; script is not exercising the deny path")
	}
	if res.Degraded {
		t.Errorf("monitor degraded after a fault-free campaign")
	}
}

// TestCampaignDefaultFaults runs the default fault mix (drops, delays,
// duplicates, helper crashes, stamp losses, timer misfires, render
// failures, transient opens) and requires every fail-closed invariant
// to hold throughout.
func TestCampaignDefaultFaults(t *testing.T) {
	res, err := Run(Campaign{Seed: 7, Steps: 250, Rules: faultinject.DefaultRules()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("invariant violations under default faults:\n%s", res.Transcript())
	}
	if len(strings.Split(res.Schedule, "\n")) < 3 {
		t.Errorf("default rules injected almost nothing:\n%s", res.Schedule)
	}
}

// TestCampaignKillChannelMidSession is the issue's acceptance
// scenario: a campaign that severs the kernel↔X netlink channel
// mid-session must end with every device access denied, a distinct
// "protection degraded" alert on record, and zero grants lacking a
// valid stamp — reproducible from the printed seed.
func TestCampaignKillChannelMidSession(t *testing.T) {
	c := Campaign{
		Seed:          42,
		Steps:         160,
		Rules:         faultinject.DefaultRules(),
		KillChannelAt: 80,
	}
	res, err := Run(c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("seed=%d (re-run with this seed to reproduce)", res.Seed)
	if !res.Ok() {
		t.Fatalf("invariant violations:\n%s", res.Transcript())
	}
	if !res.Degraded {
		t.Errorf("monitor not degraded after mid-session channel kill")
	}
	if res.Monitor.DegradedDenials == 0 {
		t.Errorf("no degraded denials recorded after channel kill")
	}
	foundAlert := false
	for _, l := range res.AlertLines {
		if strings.Contains(l, "protection degraded") && strings.Contains(l, "degraded=true") {
			foundAlert = true
			break
		}
	}
	if !foundAlert {
		t.Errorf("no distinct protection-degraded alert in history:\n%s",
			strings.Join(res.AlertLines, "\n"))
	}
	// The grant-freshness invariant is checked online; double-check
	// offline from the audit lines that no grant happened while the
	// monitor was in degraded mode.
	for _, l := range res.AuditLines {
		if strings.Contains(l, "verdict=grant") && strings.Contains(l, "degraded=1") {
			t.Errorf("grant carries degraded marker: %s", l)
		}
	}
}

// TestCampaignReconnectRecovers checks the outage is not one-way for
// the system as a whole: after ReconnectX the monitor leaves degraded
// mode and a fresh interaction grants again.
func TestCampaignReconnectRecovers(t *testing.T) {
	res, err := Run(Campaign{
		Seed:          11,
		Steps:         120,
		Rules:         faultinject.DefaultRules(),
		KillChannelAt: 40,
		ReconnectAt:   90,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.Transcript())
	}
	if res.Degraded {
		t.Errorf("monitor still degraded after reconnect")
	}
}

// TestCampaignSeededDeterminism is the reproducibility contract: the
// same seed must yield byte-identical transcripts (fault schedule,
// decisions, audit records, alerts), and a different seed must not.
func TestCampaignSeededDeterminism(t *testing.T) {
	c := Campaign{
		Seed:          1337,
		Steps:         180,
		Rules:         faultinject.DefaultRules(),
		KillChannelAt: 120,
	}
	a, err := Run(c)
	if err != nil {
		t.Fatalf("Run #1: %v", err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatalf("Run #2: %v", err)
	}
	ta, tb := a.Transcript(), b.Transcript()
	if ta != tb {
		t.Fatalf("same seed produced different transcripts:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", ta, tb)
	}
	c.Seed = 1338
	d, err := Run(c)
	if err != nil {
		t.Fatalf("Run #3: %v", err)
	}
	if d.Transcript() == ta {
		t.Errorf("different seeds produced identical transcripts")
	}
	if !a.Ok() || !d.Ok() {
		t.Fatalf("violations:\n%s\n%s", ta, d.Transcript())
	}
}

// TestCampaignStepDefault covers the zero-value convenience.
func TestCampaignStepDefault(t *testing.T) {
	res, err := Run(Campaign{Seed: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps != DefaultSteps {
		t.Errorf("Steps = %d, want %d", res.Steps, DefaultSteps)
	}
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.Transcript())
	}
}

// TestViolationSurfaceable makes sure a genuinely broken expectation
// is reported rather than swallowed: with an absurdly small δ every
// grant the monitor makes (δ check disabled via Threshold) would
// trip the checker. We instead verify the checker's arithmetic
// directly on a synthetic result.
func TestViolationSurfaceable(t *testing.T) {
	r := &runner{threshold: monitor.DefaultThreshold, res: &Result{}}
	r.violate(3, "grant-without-stamp", "pid %d", 9)
	if len(r.res.Violations) != 1 || r.res.Violations[0].Invariant != "grant-without-stamp" {
		t.Fatalf("violation not recorded: %+v", r.res.Violations)
	}
	if r.res.Ok() {
		t.Errorf("Ok() true with violations present")
	}
}

// TestCampaignFlightDump is the telemetry acceptance scenario: a
// campaign with an injected channel fault must leave a flight-recorder
// dump whose recent events name the fault point that fired and carry a
// deny reason — the post-mortem a real deployment would read.
func TestCampaignFlightDump(t *testing.T) {
	res, err := Run(Campaign{
		Seed:  11,
		Steps: 120,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointNetlinkUserToKernel, Kind: faultinject.KindError, Prob: 0.4},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FlightDumps == 0 || len(res.Flight) == 0 {
		t.Fatalf("no flight dump despite injected channel faults (dumps=%d)", res.FlightDumps)
	}
	joined := strings.Join(res.Flight, "\n")
	if !strings.Contains(joined, string(faultinject.PointNetlinkUserToKernel)) {
		t.Errorf("flight dump names no fault point:\n%s", joined)
	}
	if !strings.Contains(joined, "deny") {
		t.Errorf("flight dump carries no deny reason:\n%s", joined)
	}
	// The dump is part of the deterministic transcript: same seed,
	// same bytes.
	res2, err := Run(Campaign{
		Seed:  11,
		Steps: 120,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointNetlinkUserToKernel, Kind: faultinject.KindError, Prob: 0.4},
		},
	})
	if err != nil {
		t.Fatalf("Run (repeat): %v", err)
	}
	if res.Transcript() != res2.Transcript() {
		t.Errorf("flight-bearing transcript not reproducible across runs")
	}
}

// TestCampaignEveryDenialTrips pins "no denial is silent" on the flight
// side: every monitor denial trips the recorder, so the campaign's trip
// count covers the denial count even though only DumpCapacity dumps
// are retained.
func TestCampaignEveryDenialTrips(t *testing.T) {
	res, err := Run(Campaign{Seed: 7, Steps: 250, Rules: faultinject.DefaultRules()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Monitor.Denials <= telemetry.DefaultDumpCapacity {
		t.Fatalf("only %d denials; the campaign no longer outruns the dump ring", res.Monitor.Denials)
	}
	if uint64(res.FlightDumps) < res.Monitor.Denials {
		t.Errorf("flight_dumps = %d, want >= %d denials", res.FlightDumps, res.Monitor.Denials)
	}
}

// TestTelemetryCountersMatchStats pins every telemetry counter that
// has a StatsSnapshot twin to that twin, after a fault-free campaign
// and after the default fault mix at seed 42. The benchmark reads the
// Stats and overhaul-top reads the metrics, so the two must not drift.
//
// One pair can legitimately differ under faults: xserver.notifications
// counts the notifications the display server sends, Stats only those
// the channel delivered. A notification fails only once the channel's
// retries are exhausted, which the kill-channel campaigns do and seed
// 42's fault mix does not, so the pair is compared exactly here too.
func TestTelemetryCountersMatchStats(t *testing.T) {
	for _, c := range []struct {
		name  string
		rules []faultinject.Rule
	}{
		{"fault-free", nil},
		{"faults-seed-42", faultinject.DefaultRules()},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := run(Campaign{Seed: 42, Steps: 250, Rules: c.rules})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			// Counters summed over their labels, keyed by subsystem.name,
			// and per label under subsystem.name{labels}.
			tel := map[string]uint64{}
			for _, p := range r.tel.MetricsSnapshot() {
				if p.Kind == "counter" {
					tel[p.Subsystem+"."+p.Name] += uint64(p.Value)
					tel[p.Subsystem+"."+p.Name+"{"+p.Labels+"}"] += uint64(p.Value)
				}
			}
			mon := r.sys.Kernel.Monitor().StatsSnapshot()
			x := r.sys.X.StatsSnapshot()
			nl := r.sys.Hub().StatsSnapshot()
			twins := []struct {
				counter string
				stat    uint64
			}{
				{"monitor.notifications", mon.Notifications},
				{"monitor.audit_appends", mon.Grants + mon.Denials},
				{"monitor.decisions", mon.Grants + mon.Denials},
				{"xserver.notifications", x.Notifications},
				{"xserver.queries", x.Queries},
				{"xserver.alerts", x.AlertsShown},
				{"xserver.hardware_events", x.HardwareEvents},
				{"netlink.messages{dir=user_to_kernel}", nl.UserToKernel},
				{"netlink.messages{dir=kernel_to_user}", nl.KernelToUser},
			}
			for _, tw := range twins {
				if got := tel[tw.counter]; got != tw.stat || got == 0 {
					t.Errorf("%s = %d, Stats twin = %d (want equal and nonzero)", tw.counter, got, tw.stat)
				}
			}
		})
	}
}
