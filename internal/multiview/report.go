package multiview

import (
	"encoding/json"
	"fmt"
	"html/template"
	"strings"

	"overhaul/internal/bench"
)

// Measurement is one benchmark's cost in one mode, in the same shape
// cmd/overhaul-benchjson records (ns_per_op, allocs_per_op).
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Row is one benchmark's three-mode comparison. The ns/op columns are
// each side's total over the operations; the ratios and the delta are
// the medians over the chunks of idle and match timed against off.
type Row struct {
	Name             string
	Off, Idle, Match Measurement
	// IdleRatio and IdleDeltaNs are the median per-chunk idle/off time
	// ratio and per-op idle−off delta: the gated numbers.
	IdleRatio, IdleDeltaNs float64
	// MatchRatio is the median per-chunk match/off time ratio.
	MatchRatio float64
}

// IdlePct is the off→idle overhead in percent, from the median ratio.
// This is the gated number, with IdleDeltaNs.
func (r Row) IdlePct() float64 { return 100 * (r.IdleRatio - 1) }

// MatchPct is the off→match overhead in percent: predicate + ring
// publish + batched drain + full telemetry. Reported, not gated.
func (r Row) MatchPct() float64 { return 100 * (r.MatchRatio - 1) }

// OverBudget reports whether this row fails the off→idle gate: the
// median overhead exceeds BudgetPct AND the median delta exceeds
// FloorNs. The floor keeps sub-noise absolute regressions on very
// short benchmarks from tripping a purely relative budget.
func (r Row) OverBudget() bool {
	return r.IdlePct() > BudgetPct && r.IdleDeltaNs > FloorNs
}

// Report is the full multiview matrix: every benchmark's three modes,
// Ops operations per side of each pairing.
type Report struct {
	Ops  int
	Rows []Row
}

// Gate returns one failure line per benchmark whose off→idle overhead
// exceeds both the percentage budget and the absolute floor; an empty
// slice means the report passes.
func (rep *Report) Gate() []string {
	var fails []string
	for _, r := range rep.Rows {
		if r.OverBudget() {
			fails = append(fails, fmt.Sprintf(
				"%s: off→idle +%.1f%% (+%.1f ns/op) exceeds %.0f%% budget",
				r.Name, r.IdlePct(), r.IdleDeltaNs, BudgetPct))
		}
	}
	return fails
}

// BenchJSON renders the report as the map[name]Entry document
// cmd/overhaul-benchjson reads and validates: one entry per
// (benchmark, mode), keyed BenchmarkMultiview<Name>/mode=<mode>.
func (rep *Report) BenchJSON() ([]byte, error) {
	entries := make(map[string]Measurement, 3*len(rep.Rows))
	for _, r := range rep.Rows {
		entries["BenchmarkMultiview"+r.Name+"/mode=off"] = r.Off
		entries["BenchmarkMultiview"+r.Name+"/mode=idle"] = r.Idle
		entries["BenchmarkMultiview"+r.Name+"/mode=match"] = r.Match
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Text renders the fixed-width comparison table printed to stdout.
func (rep *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "multiview: %d benchmarks × 3 modes, %d paired chunks × %d ops, per-chunk medians\n",
		len(rep.Rows), bench.Chunks, rep.Ops/bench.Chunks)
	fmt.Fprintf(&b, "%-14s %12s %12s %9s %9s %12s %9s %12s\n",
		"benchmark", "off ns/op", "idle ns/op", "idle", "idle Δns", "match ns/op", "match", "allocs o/i/m")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-14s %12.1f %12.1f %+8.1f%% %+9.1f %12.1f %+8.1f%% %6d/%d/%d\n",
			r.Name, r.Off.NsPerOp, r.Idle.NsPerOp, r.IdlePct(), r.IdleDeltaNs,
			r.Match.NsPerOp, r.MatchPct(),
			r.Off.AllocsPerOp, r.Idle.AllocsPerOp, r.Match.AllocsPerOp)
	}
	return b.String()
}

// htmlRow is one template row with the gate verdict precomputed.
type htmlRow struct {
	Row
	Fail bool
}

type htmlData struct {
	Chunks, ChunkOps int
	BudgetPct        float64
	FloorNs          float64
	Rows             []htmlRow
	Failures         []string
}

var htmlTmpl = template.Must(template.New("multiview").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Overhaul probe multiview report</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #1a1a1a; }
table { border-collapse: collapse; margin-top: 1rem; }
th, td { padding: 0.35rem 0.9rem; border-bottom: 1px solid #ddd; text-align: right; }
th { border-bottom: 2px solid #888; }
td:first-child, th:first-child { text-align: left; font-family: ui-monospace, monospace; }
tr.fail td { background: #fde8e8; }
tr.pass td.gated { background: #e8f5e9; }
.note { color: #555; max-width: 48rem; }
.fails { color: #b00020; }
</style>
</head>
<body>
<h1>Probe multiview overhead report</h1>
<p class="note">Each benchmark was built in three modes — <b>off</b> (no
probe registry), <b>idle</b> (a probe scoped to an absent pid armed on
every attach point), <b>match</b> (match-all probe, drained perf ring,
full telemetry) — and idle and match were each timed against off in
{{.Chunks}} interleaved chunks of {{.ChunkOps}} ops, alternating which
side ran first. The overhead columns are the median per-chunk ratios.
The gated column is off→idle: budget {{printf "%.0f" .BudgetPct}}%,
absolute floor {{printf "%.0f" .FloorNs}} ns/op on the median per-op
delta. Match mode is reported, not gated.</p>
<table>
<tr><th>benchmark</th><th>off ns/op</th><th>idle ns/op</th><th>off→idle</th>
<th>match ns/op</th><th>off→match</th><th>allocs off/idle/match</th></tr>
{{range .Rows}}<tr class="{{if .Fail}}fail{{else}}pass{{end}}">
<td>{{.Name}}</td>
<td>{{printf "%.1f" .Off.NsPerOp}}</td>
<td>{{printf "%.1f" .Idle.NsPerOp}}</td>
<td class="gated">{{printf "%+.1f" .IdlePct}}%</td>
<td>{{printf "%.1f" .Match.NsPerOp}}</td>
<td>{{printf "%+.1f" .MatchPct}}%</td>
<td>{{.Off.AllocsPerOp}}/{{.Idle.AllocsPerOp}}/{{.Match.AllocsPerOp}}</td>
</tr>
{{end}}</table>
{{if .Failures}}<h2 class="fails">Gate failures</h2><ul class="fails">
{{range .Failures}}<li>{{.}}</li>{{end}}</ul>
{{else}}<p>All benchmarks within budget.</p>{{end}}
</body>
</html>
`))

// HTML renders the standalone comparison page, coloring rows by the
// off→idle gate verdict.
func (rep *Report) HTML() ([]byte, error) {
	data := htmlData{
		Chunks: bench.Chunks, ChunkOps: rep.Ops / bench.Chunks,
		BudgetPct: BudgetPct, FloorNs: FloorNs,
		Failures: rep.Gate(),
	}
	for _, r := range rep.Rows {
		data.Rows = append(data.Rows, htmlRow{Row: r, Fail: r.OverBudget()})
	}
	var b strings.Builder
	if err := htmlTmpl.Execute(&b, data); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
