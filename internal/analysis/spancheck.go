package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Spancheck enforces the tracing discipline: every span begun with a
// probe hook's Begin must be ended on every return path. A span that
// is begun and never ended stays open in the recorder forever — the
// decision-path trace renders as truncated, duration accounting is
// wrong, and the span ring fills with zombies. The repository
// convention is to follow h.Begin(parent, &sp) immediately with
// defer h.End(&sp); the analyzer also accepts an explicit h.End(&sp)
// reached before every subsequent return. A span begun inside a
// branch (the guarded `if h.Wants(pid) { ...; h.Begin(parent, &sp) }`
// form) may be ended after the branch: its lifetime runs on through
// the statements that enclose it.
//
// Like errdrop, the check is syntactic: a call statement whose
// selector is named Begin begins the span of the event variable its
// last argument addresses, and a call named End on &name ends it. A
// Begin on anything but &name can never be ended and is flagged. Test
// files are exempt (they routinely leave spans open to assert on
// intermediate state).
var Spancheck = &Analyzer{
	Name: "spancheck",
	Doc: "every probe Hook.Begin(parent, &sp) must be ended on all return " +
		"paths; follow it with defer h.End(&sp)",
	Run: runSpancheck,
}

func runSpancheck(pass *Pass) {
	if !strings.Contains(pass.Pkg.Dir, "internal") {
		return
	}
	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		// Each FuncDecl and FuncLit body is scanned exactly once at its
		// own level: the statement walker never descends into nested
		// function literals (their return paths are their own), and the
		// Inspect below reaches every literal independently.
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					spanScanList(pass, fn.Body.List, nil)
				}
			case *ast.FuncLit:
				spanScanList(pass, fn.Body.List, nil)
			}
			return true
		})
	}
}

// spanScanList walks one statement list looking for Begin mints and
// checks each one's lifetime over the remainder of the list followed
// by after, the statements that run once the list completes. It also
// recurses into composite statements so mints inside branches are
// found.
func spanScanList(pass *Pass, stmts, after []ast.Stmt) {
	for i, stmt := range stmts {
		rest := append(append([]ast.Stmt(nil), stmts[i+1:]...), after...)
		if call, ok := callStmt(stmt, "Begin"); ok {
			if name := addrOf(call); name != "" {
				spanLifetime(pass, name, call, rest)
			} else {
				pass.Reportf(call.Pos(),
					"Begin on an unnamed event: the span can never be ended; pass &sp and defer h.End(&sp)")
			}
		}
		spanRecurse(pass, stmt, rest)
	}
}

// spanRecurse descends into the blocks of a composite statement, whose
// successors are after. Function literals are deliberately skipped:
// they are separate functions with separate return paths, scanned on
// their own.
func spanRecurse(pass *Pass, stmt ast.Stmt, after []ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		spanScanList(pass, s.List, after)
	case *ast.IfStmt:
		spanScanList(pass, s.Body.List, after)
		if s.Else != nil {
			spanRecurse(pass, s.Else, after)
		}
	case *ast.ForStmt:
		spanScanList(pass, s.Body.List, after)
	case *ast.RangeStmt:
		spanScanList(pass, s.Body.List, after)
	case *ast.SwitchStmt:
		spanScanList(pass, s.Body.List, after)
	case *ast.TypeSwitchStmt:
		spanScanList(pass, s.Body.List, after)
	case *ast.SelectStmt:
		spanScanList(pass, s.Body.List, after)
	case *ast.CaseClause:
		spanScanList(pass, s.Body, after)
	case *ast.CommClause:
		spanScanList(pass, s.Body, after)
	case *ast.LabeledStmt:
		spanRecurse(pass, s.Stmt, after)
	}
}

// spanLifetime checks that the span named name, minted by call, is
// ended on every return path through the trailing statements.
func spanLifetime(pass *Pass, name string, call *ast.CallExpr, tail []ast.Stmt) {
	if !spanTailEnds(pass, name, tail, false) {
		pass.Reportf(call.Pos(),
			"span %s is never ended: follow Begin with defer h.End(&%s)", name, name)
	}
}

// spanTailEnds scans a statement list with the given entry protection
// state, reporting any return reached while the span is still open. It
// returns whether the span is protected (defer installed or End
// called) when control falls off the end of the list.
func spanTailEnds(pass *Pass, name string, stmts []ast.Stmt, protected bool) bool {
	for _, stmt := range stmts {
		if isDeferEnd(stmt, name) || isEndCall(stmt, name) {
			protected = true
			continue
		}
		if protected {
			continue
		}
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			pass.Reportf(s.Pos(),
				"span %s may not be ended on this return path: add defer h.End(&%s) after Begin", name, name)
			return true // one report per span-path is enough
		case *ast.BlockStmt:
			protected = spanTailEnds(pass, name, s.List, protected)
		case *ast.IfStmt:
			// Branch-local Ends do not protect the code after the
			// branch, so the entry state is passed down and discarded.
			spanTailEnds(pass, name, s.Body.List, protected)
			if s.Else != nil {
				spanTailEnds(pass, name, []ast.Stmt{s.Else}, protected)
			}
		case *ast.ForStmt:
			spanTailEnds(pass, name, s.Body.List, protected)
		case *ast.RangeStmt:
			spanTailEnds(pass, name, s.Body.List, protected)
		case *ast.SwitchStmt:
			spanTailEnds(pass, name, s.Body.List, protected)
		case *ast.TypeSwitchStmt:
			spanTailEnds(pass, name, s.Body.List, protected)
		case *ast.SelectStmt:
			spanTailEnds(pass, name, s.Body.List, protected)
		case *ast.CaseClause:
			spanTailEnds(pass, name, s.Body, protected)
		case *ast.CommClause:
			spanTailEnds(pass, name, s.Body, protected)
		case *ast.LabeledStmt:
			protected = spanTailEnds(pass, name, []ast.Stmt{s.Stmt}, protected)
		}
	}
	return protected
}

// callStmt matches a statement that is a call x.method(...).
func callStmt(stmt ast.Stmt, method string) (*ast.CallExpr, bool) {
	e, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := e.X.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return call, ok && sel.Sel.Name == method
}

// addrOf returns name when the call's last argument is &name.
func addrOf(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	u, ok := call.Args[len(call.Args)-1].(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return ""
	}
	id, ok := u.X.(*ast.Ident)
	if !ok {
		return ""
	}
	return id.Name
}

// isDeferEnd matches defer h.End(&name).
func isDeferEnd(stmt ast.Stmt, name string) bool {
	d, ok := stmt.(*ast.DeferStmt)
	return ok && isEndOn(d.Call, name)
}

// isEndCall matches a bare h.End(&name) statement.
func isEndCall(stmt ast.Stmt, name string) bool {
	call, ok := callStmt(stmt, "End")
	return ok && isEndOn(call, name)
}

// isEndOn matches the call h.End(&name).
func isEndOn(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "End" && addrOf(call) == name
}
