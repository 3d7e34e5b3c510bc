package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Flowcheck statically proves the paper's core invariant — a grant
// verdict must rest on fresh hardware-input evidence (§III: "access is
// granted only if user input was observed within δ") — as two
// composable dataflow rules over the module-wide taint lattice
// (none < clock < stamp, facts.go):
//
// Rule A (grant gating): every site that *issues* VerdictGrant
// (assignment, return value, composite-literal value — not
// comparisons or switch cases, which merely inspect a verdict) must
// be governed by at least one freshness comparison (a comparison over
// time.Time/time.Duration operands, or a Before/After/Equal call)
// whose operands are stamp-tainted, i.e. derived from the
// interaction-stamp store. A grant whose governing freshness check
// compares untrusted values, or a grant issued with no freshness
// check at all inside a function that performs freshness checks
// elsewhere, is reported. Functions with no freshness comparison
// anywhere (constructors listing verdicts, tables of expected
// outcomes) are out of scope by construction.
//
// Rule B (mint integrity): every call site of the stamp store's write
// API (SetInteractionStamp, Notify, Adopt, …) must pass time
// arguments that are clock- or stamp-tainted. Arguments derived from
// the enclosing function's own parameters are exempt — the
// responsibility moves to the callers, whose own call sites are
// checked where the value is actually constructed. Together the two
// rules close the loop without a whole-program fixpoint: stamps can
// only be minted from the hardware clock (B), and grants can only be
// gated on values read back from the stamp store (A).
var Flowcheck = &Analyzer{
	Name: "flowcheck",
	Doc: "grant verdicts must be gated on stamp-derived freshness comparisons, " +
		"and interaction stamps may only be minted from hardware-clock-derived time",
	Run: runFlowcheck,
}

// comparisonOps are the binary operators that compare.
var comparisonOps = map[token.Token]bool{
	token.LSS: true, token.GTR: true, token.LEQ: true,
	token.GEQ: true, token.EQL: true, token.NEQ: true,
}

// timeCompareMethods compare two time.Time values.
var timeCompareMethods = map[string]bool{
	"Before": true, "After": true, "Equal": true,
}

func runFlowcheck(pass *Pass) {
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
			checkGrantGating(pass, info, facts, fn)
			checkMintSites(pass, info, facts, fn)
		}
	}
}

// isFreshnessComparison reports whether n is a freshness comparison
// node: a comparison over time-typed operands, or a
// Before/After/Equal method call on a time.Time receiver.
func isFreshnessComparison(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		if !comparisonOps[n.Op] {
			return false
		}
		return exprIsTimeTyped(info, n.X) || exprIsTimeTyped(info, n.Y)
	case *ast.CallExpr:
		sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		if !ok || !timeCompareMethods[sel.Sel.Name] {
			return false
		}
		return exprIsTimeTyped(info, sel.X)
	}
	return false
}

func exprIsTimeTyped(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isTimeType(tv.Type)
}

// freshnessIn collects the freshness-comparison nodes inside expr.
func freshnessIn(info *types.Info, expr ast.Expr) []ast.Node {
	var out []ast.Node
	ast.Inspect(expr, func(n ast.Node) bool {
		if n != nil && isFreshnessComparison(info, n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// comparisonStampTainted reports whether any operand of the
// comparison carries stamp taint.
func comparisonStampTainted(info *types.Info, facts *ModuleFacts, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		return facts.ExprTaint(info, n.X) >= TaintStamp || facts.ExprTaint(info, n.Y) >= TaintStamp
	case *ast.CallExpr:
		if facts.ExprTaint(info, n) >= TaintStamp {
			return true
		}
	}
	return false
}

// grantSite is one issuance of VerdictGrant with its ancestor path.
type grantSite struct {
	node  ast.Node
	stack []ast.Node
}

// checkGrantGating implements rule A for one function.
func checkGrantGating(pass *Pass, info *types.Info, facts *ModuleFacts, fn *ast.FuncDecl) {
	// Does the function perform freshness checks at all?
	var allComparisons []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n != nil && isFreshnessComparison(info, n) {
			allComparisons = append(allComparisons, n)
		}
		return true
	})
	if len(allComparisons) == 0 {
		return
	}

	sites := collectGrantSites(info, fn.Body)
	for _, site := range sites {
		conds := governingConds(site.stack)
		var fresh []ast.Node
		for _, cond := range conds {
			fresh = append(fresh, freshnessIn(info, cond)...)
		}
		if len(fresh) == 0 {
			pass.Reportf(site.node.Pos(),
				"VerdictGrant issued without a governing freshness comparison, in a function that checks freshness elsewhere")
			continue
		}
		tainted := false
		for _, cmp := range fresh {
			if comparisonStampTainted(info, facts, cmp) {
				tainted = true
				break
			}
		}
		if !tainted {
			pass.Reportf(site.node.Pos(),
				"VerdictGrant is gated on a freshness comparison whose operands are not derived from the interaction-stamp store")
		}
	}
}

// collectGrantSites finds issuance sites of VerdictGrant: uses of the
// constant as an assigned/returned/composed *value*. Comparisons,
// switch-case expressions, and const/var alias declarations inspect a
// verdict rather than issue one and are skipped.
func collectGrantSites(info *types.Info, body *ast.BlockStmt) []grantSite {
	var sites []grantSite
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == "VerdictGrant" {
			if c, isConst := info.Uses[id].(*types.Const); isConst && c != nil {
				node := ast.Node(id)
				path := stack
				// pkg.VerdictGrant: hoist to the selector.
				if len(path) > 0 {
					if sel, isSel := path[len(path)-1].(*ast.SelectorExpr); isSel && sel.Sel == id {
						node = sel
						path = path[:len(path)-1]
					}
				}
				if isIssuanceContext(info, path, node) {
					sites = append(sites, grantSite{node: node, stack: append([]ast.Node(nil), path...)})
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return sites
}

// isIssuanceContext decides whether the grant constant at node,
// reached through path, is being issued (true) or merely inspected
// (false). Issuance means the verdict becomes the value of something:
// an assignment, a return, or a struct-literal field. Comparisons,
// switch cases, const/var alias declarations, call arguments, and
// slice/array/map literal elements (enumerations of the verdict
// domain, e.g. telemetry label tables) inspect rather than issue.
func isIssuanceContext(info *types.Info, path []ast.Node, node ast.Node) bool {
	if len(path) == 0 {
		return false
	}
	parent := path[len(path)-1]
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if rhs == node {
				return true
			}
		}
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.KeyValueExpr:
		if p.Value != node {
			return false
		}
		// A keyed element: issuance when the enclosing literal is a
		// struct (Decision{Verdict: VerdictGrant}); enumeration when
		// it is a map/slice literal.
		if len(path) >= 2 {
			if lit, ok := path[len(path)-2].(*ast.CompositeLit); ok {
				return compositeIsStruct(info, lit)
			}
		}
		return true
	case *ast.CompositeLit:
		return compositeIsStruct(info, p)
	case *ast.BinaryExpr, *ast.CaseClause, *ast.ValueSpec, *ast.CallExpr, *ast.SwitchStmt:
		return false
	case *ast.ParenExpr:
		return isIssuanceContext(info, path[:len(path)-1], parent)
	}
	return false
}

// compositeIsStruct reports whether the literal builds a struct value.
func compositeIsStruct(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return true // unresolvable: err toward reporting
	}
	_, isStruct := tv.Type.Underlying().(*types.Struct)
	return isStruct
}

// governingConds returns the conditions that dominate a site: the
// Cond of every enclosing if, and the case expressions of enclosing
// tagless switches.
func governingConds(stack []ast.Node) []ast.Expr {
	var conds []ast.Expr
	for i, n := range stack {
		switch s := n.(type) {
		case *ast.IfStmt:
			conds = append(conds, s.Cond)
		case *ast.CaseClause:
			// Tagless switch: each case expression is a boolean guard.
			// A tagged switch compares against the tag, which is not a
			// freshness condition.
			if i > 0 {
				if sw, ok := enclosingSwitch(stack[:i]); ok && sw.Tag == nil {
					conds = append(conds, s.List...)
				}
			}
		}
	}
	return conds
}

func enclosingSwitch(stack []ast.Node) (*ast.SwitchStmt, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		if sw, ok := stack[i].(*ast.SwitchStmt); ok {
			return sw, true
		}
	}
	return nil, false
}

// checkMintSites implements rule B for one function: time arguments
// at stamp-store write calls must carry clock (or stamp) taint, or
// derive from the enclosing function's parameters.
func checkMintSites(pass *Pass, info *types.Info, facts *ModuleFacts, fn *ast.FuncDecl) {
	params := paramObjects(info, fn)
	var litStack []*ast.FuncLit
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			// Closure parameters count as parameters too.
			litStack = append(litStack, lit)
			addParamObjects(info, lit.Type, params)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _, resolved := calleeObject(info, call)
		if !resolved || !stampSetterNames[callee.Name()] {
			return true
		}
		for _, arg := range call.Args {
			tv, found := info.Types[arg]
			if !found || !isTimeType(tv.Type) {
				continue
			}
			if facts.ExprTaint(info, arg) >= TaintClock {
				continue
			}
			if derivesFromParams(info, arg, params) {
				continue
			}
			pass.Reportf(arg.Pos(),
				"interaction stamp minted via %s from a value not derived from the hardware clock or an enclosing parameter",
				callee.Name())
		}
		return true
	})
}

// paramObjects collects the parameter (and receiver) objects of fn.
func paramObjects(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	addParamObjects(info, fn.Type, out)
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

func addParamObjects(info *types.Info, ft *ast.FuncType, out map[types.Object]bool) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
}

// derivesFromParams reports whether expr references any of the given
// parameter objects.
func derivesFromParams(info *types.Info, expr ast.Expr, params map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && params[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
