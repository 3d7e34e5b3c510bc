package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// Failclosedcheck enforces the degradation contract (DESIGN.md §9,
// paper §V): once an operation has entered mediation, an error path
// that aborts the decision must fail closed — record the denial
// (RecordDenial/RecordDenialCtx), flip degraded mode (SetDegraded),
// or complete the decision (Decide/DecideCtx audit internally) —
// before the error is surfaced. The check is scoped to the trust-seam
// packages (kernel, monitor, netlink) and to "decision functions":
// those that call Decide/DecideCtx somewhere in their body.
//
// The path model is positional, not a CFG: an error return is covered
// when some fail-closed call lies between the first mediation marker
// (SensitiveClassOf/Eval/Decide/DecideCtx) and the return. Returns
// before mediation begins (a plain open failing before the decision
// is ever consulted) are exempt. Calls count as fail-closed either by
// name or through the interprocedural FailsClosed fact — a helper
// that transitively records denials covers its callers' paths too.
// The positional model can miss a handler hidden in a sibling branch
// (false positive, suppressible with a reason) but never blesses a
// path with no handler anywhere after mediation began.
var Failclosedcheck = &Analyzer{
	Name: "failclosedcheck",
	Doc: "error paths that abort a mediated decision in kernel/monitor/netlink " +
		"must record a denial or degrade before returning",
	Scope: func(dir string) bool { return failClosedScope[path.Base(dir)] },
	Run:   runFailclosedcheck,
}

// mediationMarkers begin a mediated operation.
var mediationMarkers = map[string]bool{
	"SensitiveClassOf": true,
	"Eval":             true,
	"Decide":           true,
	"DecideCtx":        true,
}

// decisionCallNames mark a function as a decision function.
var decisionCallNames = map[string]bool{
	"Decide":    true,
	"DecideCtx": true,
}

// failClosedScope lists the trust-seam package basenames the analyzer
// applies to.
var failClosedScope = map[string]bool{
	"kernel":  true,
	"monitor": true,
	"netlink": true,
}

func runFailclosedcheck(pass *Pass) {
	info := pass.TypeInfo().Info
	facts := pass.Facts()
	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDecisionFunc(pass, info, facts, fn)
		}
	}
}

// typedCalleeName resolves the bare name of a call's target, "" when
// the call cannot be resolved (function values, conversions).
func typedCalleeName(info *types.Info, call *ast.CallExpr) string {
	if fn, _, ok := calleeObject(info, call); ok {
		return fn.Name()
	}
	return ""
}

// checkDecisionFunc applies the positional coverage rule to one
// decision function.
func checkDecisionFunc(pass *Pass, info *types.Info, facts *ModuleFacts, fn *ast.FuncDecl) {
	isDecision := false
	marker := token.Pos(-1)
	var handlers []token.Pos

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := typedCalleeName(info, call)
		if name == "" {
			return true
		}
		if decisionCallNames[name] {
			isDecision = true
		}
		if mediationMarkers[name] {
			if marker == token.Pos(-1) || call.Pos() < marker {
				marker = call.Pos()
			}
		}
		if failClosedNames[name] {
			handlers = append(handlers, call.Pos())
			return true
		}
		// Interprocedural: a callee that transitively records
		// denials/degradation covers the path too.
		for _, key := range facts.CallGraph().resolveCall(info, call) {
			if ff := facts.FuncFactByKey(key); ff != nil && ff.FailsClosed {
				handlers = append(handlers, call.Pos())
				break
			}
		}
		return true
	})
	if !isDecision || marker == token.Pos(-1) {
		return
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() < marker {
			return true // mediation had not begun on this path
		}
		if !returnsNonNilError(info, ret) {
			return true
		}
		covered := false
		for _, h := range handlers {
			if h >= marker && h <= ret.End() {
				covered = true
				break
			}
		}
		if !covered {
			pass.Reportf(ret.Pos(),
				"error return aborts a mediated decision without fail-closed handling (no RecordDenial/SetDegraded on the path from mediation start to this return)")
		}
		return true
	})
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// returnsNonNilError reports whether the return statement carries a
// result whose type satisfies error and is not the nil literal.
func returnsNonNilError(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, e := range ret.Results {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		if !types.Implements(tv.Type, errorIface) {
			continue
		}
		if id, isIdent := ast.Unparen(e).(*ast.Ident); isIdent && id.Name == "nil" {
			continue
		}
		return true
	}
	return false
}
