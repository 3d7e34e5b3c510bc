package analysis

import (
	"go/ast"
	"go/types"
)

// Errdrop flags silently discarded error returns in internal packages.
// A denial from the permission monitor, a dead-process error from the
// kernel, or a closed-pipe error from IPC that vanishes into an
// ignored return value is exactly how an access-control bypass hides;
// every error must be handled, returned, or *visibly* discarded.
//
// Each bare call statement is resolved through the type checker to
// the function or method it calls, and flagged when that callee's
// signature has an error result and the callee is declared in the
// module, or is named Close, Flush or Sync (the release calls whose
// errors the standard library reports too). Other standard-library
// calls whose errors are conventionally dropped (fmt.Fprintf,
// strings.Builder writes) stay out of scope. Deliberate discards stay
// available in two explicit forms: assigning to blank (_ = f()) or an
// //overhaul:allow errdrop annotation. defer/go statements are exempt
// — release-on-exit cleanups have nowhere to put the error.
var Errdrop = &Analyzer{
	Name: "errdrop",
	Doc: "internal packages must not silently drop error returns; " +
		"discard explicitly with _ = or an allow annotation",
	Scope: inInternal,
	Run:   runErrdrop,
}

// conventionalErr are the callee names flagged outside the module too:
// release calls whose error is the only report of a failed flush.
var conventionalErr = map[string]bool{"Close": true, "Flush": true, "Sync": true}

func runErrdrop(pass *Pass) {
	info := pass.Module.TypeInfoFor(pass.Pkg).Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, _, ok := calleeObject(info, call)
			if !ok {
				return true
			}
			results := fn.Type().(*types.Signature).Results()
			if !returnsError(results) || !(pass.Module.declares(fn.Pkg()) || conventionalErr[fn.Name()]) {
				return true
			}
			pass.Reportf(call.Pos(),
				"result of %s is dropped but it returns an error: handle it or discard with _ =",
				fn.Name())
			return true
		})
	}
}

// returnsError reports whether a result tuple carries an error.
func returnsError(results *types.Tuple) bool {
	for i := 0; i < results.Len(); i++ {
		if types.Identical(results.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()
