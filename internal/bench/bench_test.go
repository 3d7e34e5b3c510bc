package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestTableIQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness in -short mode")
	}
	rows, err := TableI(Quick())
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	names := []string{"Device Access", "Clipboard", "Screen Capture", "Shared Memory", "Bonnie++ (create)"}
	for i, r := range rows {
		if r.Name != names[i] {
			t.Fatalf("row %d = %q, want %q", i, r.Name, names[i])
		}
		if r.Baseline <= 0 || r.Overhaul <= 0 {
			t.Fatalf("row %q has non-positive durations: %+v", r.Name, r)
		}
		// At quick scale noise dominates; assert only that the
		// measured overhead stays within a loose sanity band that
		// would still catch a broken cost model (e.g. the pre-fix
		// 100 %+ shared-memory overhead).
		if pct := r.OverheadPct(); pct > 60 || pct < -40 {
			t.Fatalf("row %q overhead = %.1f%%, outside sanity band", r.Name, pct)
		}
	}
}

func TestPaperTableIShape(t *testing.T) {
	rows := PaperTableI()
	if len(rows) != 5 {
		t.Fatalf("paper rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OverheadPct <= 0 || r.OverheadPct >= 3 {
			t.Fatalf("paper overhead out of published range: %+v", r)
		}
	}
	// Published ordering: Clipboard > Screen Capture > Device Access >
	// Shared Memory > Bonnie.
	if !(rows[1].OverheadPct > rows[2].OverheadPct &&
		rows[2].OverheadPct > rows[0].OverheadPct &&
		rows[0].OverheadPct > rows[3].OverheadPct &&
		rows[3].OverheadPct > rows[4].OverheadPct) {
		t.Fatalf("paper ordering wrong: %+v", rows)
	}
}

func TestCountsPresets(t *testing.T) {
	for _, c := range []Counts{Default(), Quick(), Paper()} {
		if c.DeviceOpens <= 0 || c.Pastes <= 0 || c.Captures <= 0 ||
			c.ShmWrites <= 0 || c.ShmPages <= 0 || c.Files <= 0 {
			t.Fatalf("preset has non-positive counts: %+v", c)
		}
	}
	if Paper().DeviceOpens != 10_000_000 {
		t.Fatalf("paper device opens = %d", Paper().DeviceOpens)
	}
}

func TestFormatIncludesPaperColumn(t *testing.T) {
	rows := []Row{{Name: "Device Access", Ops: 1, Baseline: 100, Overhaul: 102}}
	out := Format(rows)
	if !strings.Contains(out, "Paper overhead") || !strings.Contains(out, "2.17") {
		t.Fatalf("Format output missing paper column:\n%s", out)
	}
}

func TestOverheadPct(t *testing.T) {
	// Only the median ratio sets the overhead, never the totals.
	r := Row{Baseline: 100, Overhaul: 103, medianRatio: 1.01}
	if pct := r.OverheadPct(); pct < 0.9 || pct > 1.1 {
		t.Fatalf("median-based OverheadPct = %v", pct)
	}
	if (Row{}).OverheadPct() != 0 {
		t.Fatal("zero row overhead should be 0")
	}
}

// TestTimeReturnsSideErrors checks an error from either side's Op or
// Reset ends the measurement and is returned.
func TestTimeReturnsSideErrors(t *testing.T) {
	boom := errors.New("boom")
	ok := Side{Op: func(int) error { return nil }}
	failAt := func(n int) func(int) error {
		return func(i int) error {
			if i == n {
				return boom
			}
			return nil
		}
	}
	for name, p := range map[string]Pair{
		"base op":    {Base: Side{Op: failAt(500)}, Over: ok},
		"over op":    {Base: ok, Over: Side{Op: failAt(500)}},
		"warm-up op": {Base: ok, Over: Side{Op: failAt(3)}},
		"base reset": {Base: Side{Op: ok.Op, Reset: func(lo, hi int) error { return boom }}, Over: ok},
		"over reset": {Base: ok, Over: Side{Op: ok.Op, Reset: func(lo, hi int) error { return boom }}},
	} {
		if _, err := p.Time(640); !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want %v", name, err, boom)
		}
	}
}

// TestTimeAlternatesChunkOrder records the call order: after the
// warm-up, each chunk runs both sides over the same operations, the
// side that goes first alternates from chunk to chunk, and both sides
// reset over the chunk's range once it is timed.
func TestTimeAlternatesChunkOrder(t *testing.T) {
	const ops = 10 * Chunks
	var calls []string
	side := func(name string) Side {
		return Side{
			Op: func(i int) error {
				calls = append(calls, fmt.Sprintf("%s%d", name, i))
				return nil
			},
			Reset: func(lo, hi int) error {
				calls = append(calls, fmt.Sprintf("%s-reset%d-%d", name, lo, hi))
				return nil
			},
		}
	}
	if _, err := (Pair{Base: side("b"), Over: side("o")}).Time(ops); err != nil {
		t.Fatal(err)
	}
	var want []string
	run := func(name string, lo, hi int) {
		for i := lo; i < hi; i++ {
			want = append(want, fmt.Sprintf("%s%d", name, i))
		}
	}
	warm := ops / 10
	for _, name := range []string{"b", "o"} {
		run(name, 0, warm)
		want = append(want, fmt.Sprintf("%s-reset0-%d", name, warm))
	}
	for c := 0; c < Chunks; c++ {
		lo, hi := c*10, c*10+10
		first, second := "b", "o"
		if c%2 == 1 {
			first, second = "o", "b"
		}
		run(first, lo, hi)
		run(second, lo, hi)
		want = append(want, fmt.Sprintf("b-reset%d-%d", lo, hi), fmt.Sprintf("o-reset%d-%d", lo, hi))
	}
	if got, exp := strings.Join(calls, " "), strings.Join(want, " "); got != exp {
		t.Fatalf("call order\n got %s\nwant %s", got, exp)
	}
}

// spinSink keeps the spin loops below from being optimised away.
var spinSink uint64

func spin(n int) {
	x := spinSink
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

// TestTimeRatioTracksWork checks a side doing ten times the work of the
// other measures as the slower one, in the ratio and the delta.
func TestTimeRatioTracksWork(t *testing.T) {
	p := Pair{
		Base: Side{Op: func(int) error { spin(200); return nil }},
		Over: Side{Op: func(int) error { spin(2000); return nil }},
	}
	tm, err := p.Time(6400)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Ratio <= 1 || tm.DeltaNs <= 0 || tm.Over <= tm.Base {
		t.Fatalf("10x side not slower: %+v", tm)
	}
}
