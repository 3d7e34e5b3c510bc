package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is the module's static call graph, built from type
// information. Static calls (package functions, concrete methods)
// resolve to their *types.Func; interface calls resolve by method
// name to every module method with that name — the same
// over-approximation the fact tables use, which is the right polarity
// for may-analyses (taint spreads wider, lock-acquisition sets grow,
// findings that depend on the *absence* of a property stay sound).
type CallGraph struct {
	// calls maps a caller's objectKey to the objectKeys of its
	// (resolved) callees, deduplicated.
	calls map[string]map[string]bool
	// methodsByName indexes every module function/method key by bare
	// name, for interface-dispatch resolution.
	methodsByName map[string][]string
}

func newCallGraph() *CallGraph {
	return &CallGraph{
		calls:         make(map[string]map[string]bool),
		methodsByName: make(map[string][]string),
	}
}

// Reaches reports whether some path of calls leads from the function
// with key from to one whose key is in targets.
func (g *CallGraph) Reaches(from string, targets map[string]bool) bool {
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for callee := range g.calls[cur] {
			if targets[callee] {
				return true
			}
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return false
}

// addDecl registers a declaration under its key.
func (g *CallGraph) addDecl(key string, fn *ast.FuncDecl) {
	if key == "" {
		return
	}
	name := fn.Name.Name
	g.methodsByName[name] = append(g.methodsByName[name], key)
}

// addCall records caller → callee.
func (g *CallGraph) addCall(caller, callee string) {
	if caller == "" || callee == "" {
		return
	}
	set := g.calls[caller]
	if set == nil {
		set = make(map[string]bool)
		g.calls[caller] = set
	}
	set[callee] = true
}

// calleeObject resolves the called function object of a call
// expression using type info: direct calls and concrete method calls
// resolve exactly; calls through interface values return the
// interface method (abstract). ok is false for calls through function
// values, builtins, and type conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) (fn *types.Func, abstract bool, ok bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, isFn := info.Uses[fun].(*types.Func); isFn {
			return f, false, true
		}
	case *ast.SelectorExpr:
		if sel, found := info.Selections[fun]; found && sel.Kind() == types.MethodVal {
			f, isFn := sel.Obj().(*types.Func)
			if !isFn {
				return nil, false, false
			}
			_, isIface := sel.Recv().Underlying().(*types.Interface)
			return f, isIface, true
		}
		// Qualified call pkg.F: the selector has no Selection entry,
		// but Uses resolves the Sel ident.
		if f, isFn := info.Uses[fun.Sel].(*types.Func); isFn {
			return f, false, true
		}
	}
	return nil, false, false
}

// resolveCall maps a call expression to the objectKeys of its possible
// module targets: the static target when concrete, or every
// same-named module method for interface dispatch. Non-module targets
// (stdlib) resolve to their key too, so callers can still consult
// facts that will simply be absent.
func (g *CallGraph) resolveCall(info *types.Info, call *ast.CallExpr) []string {
	fn, abstract, ok := calleeObject(info, call)
	if !ok {
		return nil
	}
	if !abstract {
		return []string{objectKey(fn)}
	}
	// Interface dispatch: all module methods sharing the name. The
	// interface method's own key rides along so facts attached to the
	// abstract method (none today) would still resolve.
	targets := append([]string(nil), g.methodsByName[fn.Name()]...)
	return append(targets, objectKey(fn))
}

// buildCallGraph walks every typed package and records declarations
// and resolved calls.
func buildCallGraph(m *Module) *CallGraph {
	g := newCallGraph()
	// Pass 1: declarations, so name-based dispatch sees the whole
	// module before any call resolves.
	for _, pkg := range m.PackagesInDependencyOrder() {
		ti := m.TypeInfoFor(pkg)
		for _, f := range pkg.Files {
			if isTestFile(f.Name) {
				continue
			}
			for _, decl := range f.AST.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if obj, found := ti.Info.Defs[fn.Name]; found {
					g.addDecl(objectKey(obj), fn)
				}
			}
		}
	}
	// Pass 2: calls.
	for _, pkg := range m.PackagesInDependencyOrder() {
		ti := m.TypeInfoFor(pkg)
		for _, f := range pkg.Files {
			if isTestFile(f.Name) {
				continue
			}
			for _, decl := range f.AST.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, found := ti.Info.Defs[fn.Name]
				if !found {
					continue
				}
				caller := objectKey(obj)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, isCall := n.(*ast.CallExpr)
					if !isCall {
						return true
					}
					for _, callee := range g.resolveCall(ti.Info, call) {
						g.addCall(caller, callee)
					}
					return true
				})
			}
		}
	}
	return g
}
