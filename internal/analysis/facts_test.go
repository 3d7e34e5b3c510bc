package analysis_test

import (
	"testing"

	"overhaul/internal/analysis"
)

// TestTaintLattice pins the lattice ordering the taint engine joins
// over: None < Clock < Stamp.
func TestTaintLattice(t *testing.T) {
	if !(analysis.TaintNone < analysis.TaintClock && analysis.TaintClock < analysis.TaintStamp) {
		t.Fatal("taint lattice ordering broken")
	}
	for _, tc := range []struct {
		taint analysis.Taint
		want  string
	}{
		{analysis.TaintNone, "none"}, {analysis.TaintClock, "clock"}, {analysis.TaintStamp, "stamp"},
	} {
		if got := tc.taint.String(); got != tc.want {
			t.Errorf("Taint(%d).String() = %q, want %q", tc.taint, got, tc.want)
		}
	}
}

// TestCrossPackageTaintFacts pins the interprocedural conclusions the
// flowcheck fixture is built around: a helper in one package that
// derives time from the clock must carry a clock-tainted result
// summary into its callers' packages, and the forged variant must not.
func TestCrossPackageTaintFacts(t *testing.T) {
	m, err := analysis.Load("testdata/flowcheck")
	if err != nil {
		t.Fatal(err)
	}
	facts := m.Facts()

	fromClock := facts.FuncFactByKey("flowfix/timeutil.FromClock")
	if fromClock == nil || len(fromClock.Results) == 0 || fromClock.Results[0] < analysis.TaintClock {
		t.Errorf("timeutil.FromClock should summarize a clock-tainted result, got %+v", fromClock)
	}
	forged := facts.FuncFactByKey("flowfix/timeutil.Forged")
	if forged != nil && len(forged.Results) > 0 && forged.Results[0] != analysis.TaintNone {
		t.Errorf("timeutil.Forged should stay untainted, got %+v", forged)
	}

	// The stamp getter's fiat taint flows into comparisons via the
	// caller, and setter call sites feed name-keyed parameter facts.
	if got := facts.ParamTaint("SetInteractionStamp", 1); got < analysis.TaintClock {
		t.Errorf("ParamTaint(SetInteractionStamp, 1) = %v, want at least clock", got)
	}
}

// TestLockFactsOnFixture checks the lock-order side of the fact
// engine against the lockordercheck fixture: sharded classes are
// detected and held→acquired edges come back with report sites.
func TestLockFactsOnFixture(t *testing.T) {
	m, err := analysis.Load("testdata/lockordercheck")
	if err != nil {
		t.Fatal(err)
	}
	facts := m.Facts()
	classes := facts.LockClasses()
	if len(classes) == 0 {
		t.Fatal("no lock classes detected in lockordercheck fixture")
	}
	foundSharded := false
	for _, sharded := range classes {
		if sharded {
			foundSharded = true
		}
	}
	if !foundSharded {
		t.Error("fixture declares sharded locks but none were classified as sharded")
	}
	edges := facts.AllLockEdges()
	if len(edges) == 0 {
		t.Fatal("no lock edges recorded in lockordercheck fixture")
	}
	for _, e := range edges {
		if pkg, pos, ok := facts.EdgeSite(e); !ok || pkg == nil || !pos.IsValid() {
			t.Errorf("edge %v has no report site", e)
		}
	}
}
