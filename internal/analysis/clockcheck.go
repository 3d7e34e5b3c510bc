package analysis

import (
	"go/ast"
)

// clockFuncs are the package time entry points that read or depend on
// the wall clock. Pure constructors (time.Date, time.Duration
// arithmetic, parsing, formatting) are fine: they are deterministic.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// clockExemptDirs may touch the wall clock: internal/clock is the one
// place the clock.Clock interface is implemented over time.Now.
var clockExemptDirs = map[string]bool{
	"internal/clock": true,
}

// Clockcheck enforces the single-clock invariant: Overhaul's access
// decisions compare interaction timestamps against "now" within the
// δ=2 s window (paper §III-C), which is only meaningful when every
// subsystem reads the same clock. Any direct time.Now/Sleep/After/...
// call outside internal/clock bypasses the injectable clock.Clock and
// makes simulations nondeterministic, so it is flagged. Wall-clock
// benchmark timing is legitimate but must be explicitly allowlisted
// with //overhaul:allow clockcheck <reason>.
var Clockcheck = &Analyzer{
	Name: "clockcheck",
	Doc: "direct wall-clock reads outside internal/clock break simulation " +
		"determinism; inject a clock.Clock instead",
	Scope: func(dir string) bool { return !clockExemptDirs[dir] },
	Run:   runClockcheck,
}

func runClockcheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		timeName := importName(f.AST, "time")
		if timeName == "" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			qual, name, ok := selectorCall(call)
			if !ok || qual != timeName || !clockFuncs[name] {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to time.%s outside internal/clock: route through an injected clock.Clock (or annotate benchmark timing with %s)",
				name, AllowPrefix)
			return true
		})
	}
}
