package analysis_test

import (
	"strings"
	"testing"

	"overhaul/internal/analysis"
	"overhaul/internal/analysis/analysistest"
)

// TestAnalyzersGolden runs every analyzer against its fixture tree
// under testdata/. Expectations live in the fixtures as
// // want "substring" comments. Besides the analyzer's own findings, a
// fixture may only draw stale-suppression reports on allows naming it.
func TestAnalyzersGolden(t *testing.T) {
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			diags := analysistest.Run(t, "testdata/"+a.Name, a)
			if len(diags) == 0 {
				t.Fatalf("fixture for %s produced no diagnostics; the golden harness is not exercising it", a.Name)
			}
			for _, d := range diags {
				stale := d.Analyzer == "allow" && strings.HasSuffix(d.Message, "suppresses no "+a.Name+" finding")
				if d.Analyzer != a.Name && !stale {
					t.Errorf("diagnostic from unexpected analyzer: %s", d)
				}
				if d.File == "" || d.Line == 0 {
					t.Errorf("diagnostic missing position: %s", d)
				}
			}
		})
	}
}

// TestRegistry pins the suite composition the CI gate depends on.
func TestRegistry(t *testing.T) {
	want := []string{"atomiccheck", "clockcheck", "errdrop", "failclosedcheck", "flowcheck", "lockcheck", "lockordercheck", "printcheck", "spancheck", "stampcheck"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].Name, name)
		}
		if analysis.ByName(name) != all[i] {
			t.Errorf("ByName(%s) does not resolve to the registered analyzer", name)
		}
		if all[i].Doc == "" {
			t.Errorf("analyzer %s has no Doc", name)
		}
	}
	if analysis.ByName("nonesuch") != nil {
		t.Error("ByName(nonesuch) should be nil")
	}
}
