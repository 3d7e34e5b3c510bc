// Package analysis is a stdlib-only static-analysis framework for the
// Overhaul repository.
//
// Overhaul's security argument rests on invariants the Go type system
// cannot express: every IPC send path must propagate interaction
// timestamps (paper §IV-B), every access decision must be evaluated
// against the single injectable clock so the δ=2 s window is
// meaningful, and the simulated kernel's shared structures must never
// be touched without their lock. The analyzers in this package check
// those invariants mechanically over the module's syntax trees; the
// driver in cmd/overhaul-lint wires them into CI.
//
// The framework is deliberately built on go/ast + go/parser + go/token
// only — no golang.org/x/tools dependency — so go.mod stays
// dependency-free. Analyzers are therefore syntactic: they trade the
// precision of full type information for zero-dependency portability,
// and lean on the repository's strong conventions (mutex fields named
// before the state they guard, stamp-slot helpers with unique names).
//
// Findings can be suppressed with an in-source annotation:
//
//	//overhaul:allow <analyzer> <reason>
//
// which silences the named analyzer on its own line and the line
// immediately following. The reason is mandatory; an allow comment
// without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable/disable
	// flags, and //overhaul:allow annotations.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// NeedsTypes marks analyzers that consume type information and
	// interprocedural facts. The driver type-checks the module once
	// when at least one such analyzer is selected; purely syntactic
	// analyzers keep their zero-setup fast path.
	NeedsTypes bool
}

// Diagnostic is one finding, addressed by file position.
type Diagnostic struct {
	File     string `json:"file"` // slash path relative to the scan root
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Fixes holds machine-applicable rewrites that resolve the
	// finding, if the analyzer can propose any. The driver's -fix
	// mode applies the first fix of each diagnostic.
	Fixes []SuggestedFix `json:"fixes,omitempty"`
}

// SuggestedFix is one self-contained rewrite. All edits must apply
// atomically: a fix is either taken whole or not at all.
type SuggestedFix struct {
	// Message describes the rewrite ("discard the error explicitly").
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// TextEdit replaces the byte range [Start, End) of File (a slash path
// relative to the scan root) with NewText. Start == End inserts.
type TextEdit struct {
	File    string `json:"file"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"new_text"`
}

// String renders the conventional compiler-style form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package plus the reporting
// sink. Reports landing on a line covered by a matching
// //overhaul:allow annotation are dropped before they reach the sink.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package

	sink func(Diagnostic)
}

// Position resolves a token position against the module's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Module.Fset.Position(pos)
}

// Reportf files a diagnostic at pos unless a suppression annotation
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, nil, format, args...)
}

// ReportFix files a diagnostic carrying suggested fixes.
func (p *Pass) ReportFix(pos token.Pos, fixes []SuggestedFix, format string, args ...any) {
	p.report(pos, fixes, format, args...)
}

func (p *Pass) report(pos token.Pos, fixes []SuggestedFix, format string, args ...any) {
	position := p.Position(pos)
	file := p.Pkg.fileByAbs(position.Filename)
	if file != nil && file.suppressed(p.Analyzer.Name, position.Line) {
		return
	}
	name := position.Filename
	if file != nil {
		name = file.Name
	}
	p.sink(Diagnostic{
		File:     name,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fixes:    fixes,
	})
}

// TypeInfo returns the type-checked view of the pass's package, nil
// when unavailable. Only meaningful for analyzers with NeedsTypes.
func (p *Pass) TypeInfo() *TypeInfo {
	return p.Module.TypeInfoFor(p.Pkg)
}

// Facts returns the module's interprocedural fact tables, nil when no
// package type-checked.
func (p *Pass) Facts() *ModuleFacts {
	return p.Module.Facts()
}

// Edit builds a TextEdit replacing the source range [start, end) with
// newText, resolving positions to file-relative byte offsets.
func (p *Pass) Edit(start, end token.Pos, newText string) TextEdit {
	sp := p.Position(start)
	ep := p.Position(end)
	name := sp.Filename
	if file := p.Pkg.fileByAbs(sp.Filename); file != nil {
		name = file.Name
	}
	return TextEdit{File: name, Start: sp.Offset, End: ep.Offset, NewText: newText}
}

// Run applies each analyzer to every package of the module and returns
// the surviving findings sorted by file, line, column, analyzer.
// Malformed suppression annotations are reported alongside, under the
// pseudo-analyzer name "allow".
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			diags = append(diags, f.badAllows...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Module:   m,
				Pkg:      pkg,
				sink:     func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass) //overhaul:allow errdrop Analyzer.Run is a void field call; the name collides with error-returning Runs elsewhere
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// --- shared syntactic helpers ---------------------------------------------

// importName returns the local name under which file imports path, or
// "" when the file does not import it. An unnamed import of "time"
// yields "time"; import xtime "time" yields "xtime"; import _ "time"
// yields "".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		got := strings.Trim(imp.Path.Value, `"`)
		if got != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(got, "/"); i >= 0 {
			return got[i+1:]
		}
		return got
	}
	return ""
}

// selectorCall matches a call of the form pkg.Name(...) and returns the
// qualifier and selector names.
func selectorCall(call *ast.CallExpr) (qual, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	return id.Name, sel.Sel.Name, true
}

// isTestFile reports whether the file name follows the _test.go
// convention.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}
