// Package analysis is a stdlib-only static-analysis framework for the
// Overhaul repository.
//
// Overhaul's security argument rests on invariants the Go type system
// cannot express: every IPC send path must propagate interaction
// timestamps (paper §IV-B), every access decision must be evaluated
// against the single injectable clock so the δ=2 s window is
// meaningful, and the simulated kernel's shared structures must never
// be touched without their lock. The analyzers in this package check
// those invariants mechanically over the module's syntax trees and
// types; the driver in cmd/overhaul-lint wires them into CI.
//
// The framework is built on the standard library's go/ast, go/parser
// and go/types only — no golang.org/x/tools dependency — so go.mod
// stays dependency-free. Load parses and type-checks the whole module
// (a tree that does not type-check is not loaded), and the analyzers
// read module-wide facts from one engine: the type-checked packages,
// the call graph over their resolved objects, and the fact tables
// computed over that graph (facts.go, taint.go, lockfacts.go).
//
// Findings can be suppressed with an in-source annotation:
//
//	//overhaul:allow <analyzer> <reason>
//
// which silences the named analyzer on its own line and the line
// immediately following. The reason is mandatory; an allow comment
// without one is itself reported, and so is one that silences nothing.
// The annotation is the only way to accept a finding: the driver
// reports, it neither rewrites sources nor keeps a ledger of known
// findings.
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
	// Scope, when set, restricts the analyzer to the packages whose
	// slash directory (relative to the module root) it accepts. An
	// allow annotation is judged stale only inside its analyzer's scope.
	Scope func(dir string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Diagnostic is one finding, addressed by file position.
type Diagnostic struct {
	File     string `json:"file"` // slash path relative to the scan root
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the conventional compiler-style form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package plus the reporting
// sink. Reports landing on a line covered by a matching
// //overhaul:allow annotation are dropped before they reach the sink,
// and the annotation is marked as used.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package

	sink func(Diagnostic)
	used map[allowSite]bool
}

// Position resolves a token position against the module's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Module.Fset.Position(pos)
}

// Reportf files a diagnostic at pos unless a suppression annotation
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Position(pos)
	file := p.Pkg.fileByAbs(position.Filename)
	if file != nil && file.suppress(p.Analyzer.Name, position.Line, p.used) {
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
	})
}

// TypeInfo returns the type-checked view of the pass's package.
func (p *Pass) TypeInfo() *TypeInfo {
	return p.Module.TypeInfoFor(p.Pkg)
}

// Facts returns the module's interprocedural fact tables, computed on
// first use.
func (p *Pass) Facts() *ModuleFacts {
	return p.Module.Facts()
}

// Run applies each analyzer to every package of the module and returns
// the surviving findings sorted by file, line, column, analyzer.
// Malformed suppression annotations, and annotations that name an
// analyzer which ran over their package but suppressed none of its
// findings, are reported alongside under the pseudo-analyzer "allow".
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ran := make(map[scoped]bool)
	used := make(map[allowSite]bool)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			diags = append(diags, f.badAllows...)
		}
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.Dir) {
				continue
			}
			ran[scoped{pkg, a.Name}] = true
			pass := &Pass{
				Analyzer: a,
				Module:   m,
				Pkg:      pkg,
				sink:     func(d Diagnostic) { diags = append(diags, d) },
				used:     used,
			}
			a.Run(pass)
		}
	}
	diags = append(diags, staleAllows(m, ran, used)...)
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

// inInternal is the scope of the analyzers that police library code:
// packages under an internal directory.
func inInternal(dir string) bool {
	return strings.Contains(dir, "internal")
}

// isTestFile reports whether the file name follows the _test.go
// convention.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}
