package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// AllowPrefix introduces a suppression annotation:
//
//	//overhaul:allow <analyzer> <reason>
//
// The annotation silences <analyzer> on the line the comment sits on
// and on the line immediately below it, covering both the trailing
// form (code //overhaul:allow ...) and the standalone form (comment on
// its own line above the code). The reason is mandatory and is what a
// reviewer reads instead of the diagnostic, so an allow without one is
// reported under the pseudo-analyzer "allow". So is an allow that
// names an analyzer of the run but suppressed none of its findings: a
// stale annotation would silence the next finding that lands there.
const AllowPrefix = "//overhaul:allow"

// allow is one parsed suppression annotation.
type allow struct {
	analyzer string
	col      int
}

// scoped names one analyzer's run over one package.
type scoped struct {
	pkg      *Package
	analyzer string
}

// allowSite identifies one annotation by file, line and analyzer.
type allowSite struct {
	file     *File
	line     int
	analyzer string
}

// parseAllow splits a raw comment into its annotation parts. ok is
// false when the comment is not an allow annotation at all; a present
// annotation with missing fields returns ok true and empty parts.
func parseAllow(text string) (analyzer, reason string, ok bool) {
	if !strings.HasPrefix(text, AllowPrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, AllowPrefix)
	// Require a separator so e.g. //overhaul:allowx is not an allow.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// parseAllows extracts the suppression table of one file: line number
// of the annotation -> allows declared there. Malformed annotations
// come back as ready-made diagnostics.
func parseAllows(fset *token.FileSet, f *File) (map[int][]allow, []Diagnostic) {
	var allows map[int][]allow
	var bad []Diagnostic
	for _, group := range f.AST.Comments {
		for _, c := range group.List {
			analyzer, reason, ok := parseAllow(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if analyzer == "" || reason == "" {
				bad = append(bad, Diagnostic{
					File:     f.Name,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: "allow",
					Message:  "malformed suppression: want //overhaul:allow <analyzer> <reason>",
				})
				continue
			}
			if allows == nil {
				allows = make(map[int][]allow)
			}
			allows[pos.Line] = append(allows[pos.Line], allow{analyzer: analyzer, col: pos.Column})
		}
	}
	return allows, bad
}

// suppress reports whether a diagnostic from analyzer at line is
// covered by an annotation on the same line or the line above, and
// marks every covering annotation as used.
func (f *File) suppress(analyzer string, line int, used map[allowSite]bool) bool {
	covered := false
	for _, l := range []int{line, line - 1} {
		for _, a := range f.allows[l] {
			if a.analyzer == analyzer {
				used[allowSite{f, l, analyzer}] = true
				covered = true
			}
		}
	}
	return covered
}

// staleAllows reports each annotation that names an analyzer which
// ran over its package but suppressed none of that analyzer's
// findings. Annotations naming an analyzer left out of the run, or
// sitting outside its scope, are not judged.
func staleAllows(m *Module, ran map[scoped]bool, used map[allowSite]bool) []Diagnostic {
	var stale []Diagnostic
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for line, allows := range f.allows {
				for _, a := range allows {
					if !ran[scoped{pkg, a.analyzer}] || used[allowSite{f, line, a.analyzer}] {
						continue
					}
					stale = append(stale, Diagnostic{
						File:     f.Name,
						Line:     line,
						Col:      a.col,
						Analyzer: "allow",
						Message:  fmt.Sprintf("stale suppression: suppresses no %s finding", a.analyzer),
					})
				}
			}
		}
	}
	return stale
}
