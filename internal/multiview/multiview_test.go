package multiview

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunSmallMatrix runs the real matrix at a tiny op count and
// checks every (benchmark, mode) slot and every median was measured.
func TestRunSmallMatrix(t *testing.T) {
	rep, err := run(300)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Ops != 300 {
		t.Fatalf("ops not recorded: Ops=%d", rep.Ops)
	}
	if len(rep.Rows) != len(benchmarks()) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(benchmarks()))
	}
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		if seen[r.Name] {
			t.Errorf("duplicate row %q", r.Name)
		}
		seen[r.Name] = true
		for _, m := range []Measurement{r.Off, r.Idle, r.Match} {
			if m.NsPerOp <= 0 {
				t.Errorf("%s: unmeasured slot %+v", r.Name, m)
			}
		}
		if r.IdleRatio <= 0 || r.MatchRatio <= 0 {
			t.Errorf("%s: unmeasured median ratio %+v", r.Name, r)
		}
	}
}

// TestEveryBenchmarkCrossesAHook checks no row's off→idle is trivially
// zero: every benchmark's op reaches at least one hook, so the match
// probe sees at least one event per op, while the idle probe, rejected
// by the pid window, sees none.
func TestEveryBenchmarkCrossesAHook(t *testing.T) {
	const ops = 100
	for _, b := range benchmarks() {
		matched := map[Mode]uint64{}
		for _, m := range []Mode{ModeIdle, ModeMatch} {
			reg, _, err := instrument(m)
			if err != nil {
				t.Fatal(err)
			}
			op, err := b.setup(reg)
			if err != nil {
				t.Fatalf("%s/mode=%s: %v", b.name, m, err)
			}
			for i := 0; i < ops; i++ {
				if err := op(i); err != nil {
					t.Fatalf("%s/mode=%s: op %d: %v", b.name, m, i, err)
				}
			}
			probes := reg.List()
			if len(probes) != 1 {
				t.Fatalf("%s/mode=%s: %d probes attached, want 1", b.name, m, len(probes))
			}
			matched[m] = probes[0].Matched
		}
		if matched[ModeMatch] < ops {
			t.Errorf("%s: match probe saw %d events over %d ops, want at least one per op", b.name, matched[ModeMatch], ops)
		}
		if matched[ModeIdle] != 0 {
			t.Errorf("%s: idle probe saw %d events, want 0", b.name, matched[ModeIdle])
		}
	}
}

// TestBenchJSONShape checks the JSON document is exactly what
// overhaul-benchjson -check accepts: Benchmark-prefixed keys, positive
// ns/op, non-negative allocs.
func TestBenchJSONShape(t *testing.T) {
	rep := &Report{Ops: 10, Rows: []Row{
		{Name: "Decide",
			Off:   Measurement{NsPerOp: 100, AllocsPerOp: 0},
			Idle:  Measurement{NsPerOp: 105, AllocsPerOp: 0},
			Match: Measurement{NsPerOp: 180, AllocsPerOp: 2}},
	}}
	out, err := rep.BenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	var entries map[string]Measurement
	if err := json.Unmarshal(out, &entries); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	for name, e := range entries {
		if !strings.HasPrefix(name, "BenchmarkMultiviewDecide/mode=") {
			t.Errorf("bad key %q", name)
		}
		if e.NsPerOp <= 0 || e.AllocsPerOp < 0 {
			t.Errorf("%s: bad entry %+v", name, e)
		}
	}
	if entries["BenchmarkMultiviewDecide/mode=match"].AllocsPerOp != 2 {
		t.Error("match-mode allocs not preserved")
	}
}

// TestGateBudgetAndFloor pins the two-condition gate on the median
// fields: a row fails only when its median ratio exceeds the relative
// budget AND its median delta exceeds the absolute floor, whatever the
// ns/op totals say.
func TestGateBudgetAndFloor(t *testing.T) {
	rep := &Report{Rows: []Row{
		// 20% over but only +2 ns: under the floor, passes.
		{Name: "Tiny", Off: Measurement{NsPerOp: 10}, Idle: Measurement{NsPerOp: 12}, IdleRatio: 1.2, IdleDeltaNs: 2},
		// +50 ns but only 5%: under the budget, passes.
		{Name: "Big", Off: Measurement{NsPerOp: 1000}, Idle: Measurement{NsPerOp: 1050}, IdleRatio: 1.05, IdleDeltaNs: 50},
		// 15% and +30 ns: fails both conditions.
		{Name: "Bad", Off: Measurement{NsPerOp: 200}, Idle: Measurement{NsPerOp: 230}, IdleRatio: 1.15, IdleDeltaNs: 30},
		// Totals 50% over, from a stall in a few idle chunks, but the
		// medians are clean: passes.
		{Name: "Stalled", Off: Measurement{NsPerOp: 200}, Idle: Measurement{NsPerOp: 300}, IdleRatio: 1.01, IdleDeltaNs: 2},
		// Totals equal, but the medians are 20% and +40 ns over: fails.
		{Name: "Masked", Off: Measurement{NsPerOp: 200}, Idle: Measurement{NsPerOp: 200}, IdleRatio: 1.2, IdleDeltaNs: 40},
	}}
	fails := rep.Gate()
	if len(fails) != 2 {
		t.Fatalf("got %d failures %v, want 2", len(fails), fails)
	}
	if !strings.Contains(fails[0], "Bad") || !strings.Contains(fails[0], "+15.0%") || !strings.Contains(fails[0], "+30.0 ns/op") {
		t.Errorf("failure line %q does not name the bad row", fails[0])
	}
	if !strings.Contains(fails[1], "Masked") || !strings.Contains(fails[1], "+20.0%") {
		t.Errorf("failure line %q does not name the masked row", fails[1])
	}
	for _, i := range []int{0, 1, 3} {
		if rep.Rows[i].OverBudget() {
			t.Errorf("%s should pass", rep.Rows[i].Name)
		}
	}
}

// TestHTMLReport checks the page renders with rows and the gate
// verdict.
func TestHTMLReport(t *testing.T) {
	rep := &Report{Ops: 1000, Rows: []Row{
		{Name: "Decide", Off: Measurement{NsPerOp: 100}, Idle: Measurement{NsPerOp: 103}, Match: Measurement{NsPerOp: 150},
			IdleRatio: 1.03, IdleDeltaNs: 3, MatchRatio: 1.5},
		{Name: "Bad", Off: Measurement{NsPerOp: 200}, Idle: Measurement{NsPerOp: 260}, Match: Measurement{NsPerOp: 300},
			IdleRatio: 1.3, IdleDeltaNs: 60, MatchRatio: 1.5},
	}}
	out, err := rep.HTML()
	if err != nil {
		t.Fatal(err)
	}
	page := string(out)
	for _, want := range []string{"Decide", "Bad", "Gate failures", `class="fail"`, "multiview"} {
		if !strings.Contains(page, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeOff: "off", ModeIdle: "idle", ModeMatch: "match"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
