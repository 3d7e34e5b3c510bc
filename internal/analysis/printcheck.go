package analysis

import (
	"go/ast"
	"strings"
)

// Printcheck keeps internal packages silent. Overhaul's observable
// behaviour flows through internal/auditlog (the tamper-evident
// decision log users audit) and internal/trace (the protocol traces
// behind the paper's figures); ad-hoc fmt.Print*/log output from
// library code would bypass both, interleave with benchmark output,
// and make golden traces nondeterministic. Writing to an injected
// io.Writer (fmt.Fprintf) is fine — the caller chooses the sink.
var Printcheck = &Analyzer{
	Name: "printcheck",
	Doc: "internal packages must not print: route output through " +
		"internal/auditlog or internal/trace",
	Scope: inInternal,
	Run:   runPrintcheck,
}

// printFuncs are the direct-to-stdout fmt entry points.
var printFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}

func runPrintcheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		for _, imp := range f.AST.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "log" {
				pass.Reportf(imp.Pos(),
					"internal packages must not import log: use internal/auditlog or internal/trace")
			}
		}
		fmtName := importName(f.AST, "fmt")
		osName := importName(f.AST, "os")
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if qual, name, ok := selectorCall(node); ok && qual == fmtName && fmtName != "" && printFuncs[name] {
					pass.Reportf(node.Pos(),
						"fmt.%s writes to stdout from an internal package: return the string or take an io.Writer", name)
				}
				if id, ok := node.Fun.(*ast.Ident); ok && (id.Name == "print" || id.Name == "println") {
					pass.Reportf(node.Pos(), "builtin %s in an internal package: remove debug output", id.Name)
				}
			case *ast.SelectorExpr:
				if id, ok := node.X.(*ast.Ident); ok && osName != "" && id.Name == osName &&
					(node.Sel.Name == "Stdout" || node.Sel.Name == "Stderr") {
					pass.Reportf(node.Pos(),
						"os.%s referenced from an internal package: take an io.Writer from the caller", node.Sel.Name)
				}
			}
			return true
		})
	}
}
