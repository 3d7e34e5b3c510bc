package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the module's interprocedural fact tables: the
// taint lattice behind flowcheck, the fail-closed reachability facts
// behind failclosedcheck, and the lock-acquisition facts behind
// lockordercheck. Packages are processed in dependency order; inside
// a package the propagation iterates to a fixpoint (the lattice is
// finite and all tables grow monotonically, so it terminates).
//
// The taint roots are deliberate and narrow:
//
//   - TaintClock enters at calls to a method named Now on a type
//     declared in a package named "clock" — the single injectable
//     time source (clockcheck already bans time.Now everywhere else).
//   - TaintStamp enters at calls to the interaction-stamp store's
//     read API (stampGetterNames): by *definition* those return
//     hardware-input evidence. The write half of the invariant is
//     checked separately by flowcheck's mint rule, so the two rules
//     compose into "grant ⇒ fresh hardware stamp" without a global
//     (non-dependency-ordered) fixpoint.
//
// Everything else is propagation: assignments, field stores (plain,
// keyed composite literals, and atomic Store/Swap/CompareAndSwap),
// derivation through calls whose receiver or arguments are tainted,
// summaries of module functions (result taint), and name-keyed
// parameter facts for interface dispatch.

// stampGetterNames is the interaction-stamp store's read API. A call
// to a method with one of these names yields TaintStamp on its
// time-typed results.
var stampGetterNames = map[string]bool{
	"InteractionStamp": true,
	"InteractionView":  true,
	"Stamp":            true,
}

// stampSetterNames is the store's write API — the mint sites checked
// by flowcheck's rule B and the seams the stamp fields behind them are
// identified by.
var stampSetterNames = map[string]bool{
	"SetInteractionStamp":     true,
	"SetInteractionStampSpan": true,
	"Notify":                  true,
	"NotifyCtx":               true,
	"NotifyInteraction":       true,
	"Adopt":                   true,
	"AdoptSpan":               true,
}

// failClosedNames are the base fail-closed handlers: calling one of
// these records a denial or flips degraded mode, so an error path that
// reaches one is audited. Decide/DecideCtx are deliberately *not*
// base handlers — a decision function's own mediation call must not
// cover its error returns — but a Decide that transitively records
// denials earns the FailsClosed fact like any other function.
var failClosedNames = map[string]bool{
	"RecordDenial":    true,
	"RecordDenialCtx": true,
	"SetDegraded":     true,
}

// atomicStoreNames are methods that write through to their receiver
// (sync/atomic values): a tainted argument taints the receiver field.
var atomicStoreNames = map[string]bool{
	"Store":          true,
	"Swap":           true,
	"CompareAndSwap": true,
	"Add":            true,
	"Or":             true,
	"And":            true,
}

// lockClass identifies one lock-order class: a named struct type that
// carries a mutex. Sharded classes are element types of an array or
// slice field somewhere in the module (the kernel's 16 process-table
// shards, the monitor's 8 audit-ring shards).
type lockClass struct {
	key     string // pkgpath.TypeName
	sharded bool
}

// taintState is the module-wide mutable state of fact computation.
type taintState struct {
	m     *Module
	graph *CallGraph
	mf    *moduleFacts

	// varTaint covers locals, parameters, and package-level vars,
	// keyed by their types.Object. Retained after computation so
	// flowcheck can re-evaluate expression taint.
	varTaint map[types.Object]Taint

	// classes maps a named type's key to its lock class; shardedOwner
	// marks element types of mutex-bearing arrays/slices.
	classes map[string]*lockClass

	// edgePos remembers a representative position for every lock edge
	// (held→acquired), for lockordercheck reporting.
	edgePos map[LockEdge]reportSite

	changed bool // set when any table grows during a fixpoint sweep
}

// reportSite ties a fact back to a package and position.
type reportSite struct {
	pkg *Package
	pos token.Pos
}

// computeFacts builds the module's fact tables.
func computeFacts(m *Module) *moduleFacts {
	mf := &moduleFacts{
		funcs:  make(map[string]*FuncFact),
		fields: make(map[string]*FieldFact),
		params: make(map[string]*ParamFact),
	}
	st := &taintState{
		m:        m,
		graph:    buildCallGraph(m),
		mf:       mf,
		varTaint: make(map[types.Object]Taint),
		classes:  make(map[string]*lockClass),
		edgePos:  make(map[LockEdge]reportSite),
	}
	mf.graph = st.graph
	mf.state = st

	st.collectLockClasses()

	for _, pkg := range m.PackagesInDependencyOrder() {
		st.analyzePackage(pkg, m.TypeInfoFor(pkg))
	}
	return mf
}

// analyzePackage iterates the package's functions to a fixpoint.
func (st *taintState) analyzePackage(pkg *Package, ti *TypeInfo) {
	var fns []*ast.FuncDecl
	for _, f := range pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		for _, decl := range f.AST.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fns = append(fns, fn)
			}
		}
	}
	for {
		st.changed = false
		for _, fn := range fns {
			st.analyzeFunc(pkg, ti, fn)
		}
		if !st.changed {
			return
		}
	}
}

// funcFactFor returns (creating on demand) the fact entry for key.
func (st *taintState) funcFactFor(key string) *FuncFact {
	if f, ok := st.mf.funcs[key]; ok {
		return f
	}
	f := &FuncFact{}
	st.mf.funcs[key] = f
	return f
}

// taintField joins t into the field's fact.
func (st *taintState) taintField(obj types.Object, t Taint) {
	if obj == nil || t == TaintNone {
		return
	}
	key := objectKey(obj)
	f := st.mf.fields[key]
	if f == nil {
		f = &FieldFact{}
		st.mf.fields[key] = f
	}
	if joined := f.Taint.join(t); joined != f.Taint {
		f.Taint = joined
		st.changed = true
	}
}

// taintParamFact joins t into the name-keyed parameter fact.
func (st *taintState) taintParamFact(method string, index int, t Taint) {
	if t == TaintNone {
		return
	}
	key := paramKey(method, index)
	f := st.mf.params[key]
	if f == nil {
		f = &ParamFact{}
		st.mf.params[key] = f
	}
	if joined := f.Taint.join(t); joined != f.Taint {
		f.Taint = joined
		st.changed = true
	}
}

// taintVar joins t into a variable object's taint.
func (st *taintState) taintVar(obj types.Object, t Taint) {
	if obj == nil || t == TaintNone {
		return
	}
	if joined := st.varTaint[obj].join(t); joined != st.varTaint[obj] {
		st.varTaint[obj] = joined
		st.changed = true
	}
}

// isTimeType reports whether t is time.Time or time.Duration
// (possibly named aliases thereof resolve structurally: Duration's
// underlying is int64, so Duration is matched by name).
func isTimeType(t types.Type) bool {
	if t == nil {
		return false
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
			return obj.Name() == "Time" || obj.Name() == "Duration"
		}
	}
	return false
}

// pkgBase is the last path element of a package path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isClockNow reports whether the call is the hardware-clock read: a
// method named Now whose defining package is named "clock".
func isClockNow(info *types.Info, call *ast.CallExpr) bool {
	fn, _, ok := calleeObject(info, call)
	if !ok || fn.Name() != "Now" || fn.Pkg() == nil {
		return false
	}
	return pkgBase(fn.Pkg().Path()) == "clock"
}

// callResultTaints returns the taint of each result of a call, joining
// summaries of all resolved targets, the stamp-getter fiat, the clock
// seed, and derivation from tainted receiver/arguments.
func (st *taintState) callResultTaints(info *types.Info, call *ast.CallExpr) []Taint {
	nres := 1
	if tv, ok := info.Types[call]; ok {
		if tuple, isTuple := tv.Type.(*types.Tuple); isTuple {
			nres = tuple.Len()
		}
	}
	out := make([]Taint, nres)

	if isClockNow(info, call) {
		for i := range out {
			out[i] = TaintClock
		}
		return out
	}

	fn, _, resolved := calleeObject(info, call)

	// Stamp-getter fiat: time-typed results of the store's read API
	// are stamp evidence by definition.
	if resolved && stampGetterNames[fn.Name()] {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil {
			for i := 0; i < sig.Results().Len() && i < nres; i++ {
				if isTimeType(sig.Results().At(i).Type()) {
					out[i] = TaintStamp
				}
			}
		}
	}

	// Summaries of module targets (static or by-name dispatch).
	for _, key := range st.graph.resolveCall(info, call) {
		if f := st.mf.funcs[key]; f != nil {
			for i, t := range f.Results {
				if i < nres {
					out[i] = out[i].join(t)
				}
			}
		}
	}

	// Derivation: a call over tainted inputs stays tainted (t.Add(d),
	// time.Unix(0, nanos), stampTime(n), x.Load()). Joined into every
	// result — over-approximate, which only widens taint.
	derived := TaintNone
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		derived = derived.join(st.exprTaint(info, sel.X))
	}
	for _, arg := range call.Args {
		derived = derived.join(st.exprTaint(info, arg))
	}
	if derived != TaintNone {
		for i := range out {
			out[i] = out[i].join(derived)
		}
	}
	return out
}

// exprTaint evaluates the taint of a single-valued expression.
func (st *taintState) exprTaint(info *types.Info, e ast.Expr) Taint {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		t := st.varTaint[obj]
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if f := st.mf.fields[objectKey(v)]; f != nil {
				t = t.join(f.Taint)
			}
		}
		return t
	case *ast.SelectorExpr:
		t := st.exprTaint(info, e.X)
		obj := info.Uses[e.Sel]
		if sel, ok := info.Selections[e]; ok {
			obj = sel.Obj()
		}
		if obj != nil {
			t = t.join(st.varTaint[obj])
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if f := st.mf.fields[objectKey(v)]; f != nil {
					t = t.join(f.Taint)
				}
			}
		}
		return t
	case *ast.CallExpr:
		res := st.callResultTaints(info, e)
		if len(res) == 1 {
			return res[0]
		}
		// Multi-valued call in single-value position cannot happen;
		// join defensively.
		t := TaintNone
		for _, r := range res {
			t = t.join(r)
		}
		return t
	case *ast.BinaryExpr:
		return st.exprTaint(info, e.X).join(st.exprTaint(info, e.Y))
	case *ast.UnaryExpr:
		return st.exprTaint(info, e.X)
	case *ast.ParenExpr:
		return st.exprTaint(info, e.X)
	case *ast.StarExpr:
		return st.exprTaint(info, e.X)
	case *ast.IndexExpr:
		return st.exprTaint(info, e.X).join(st.exprTaint(info, e.Index))
	case *ast.TypeAssertExpr:
		return st.exprTaint(info, e.X)
	case *ast.CompositeLit:
		t := TaintNone
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = t.join(st.exprTaint(info, kv.Value))
			} else {
				t = t.join(st.exprTaint(info, el))
			}
		}
		return t
	case *ast.SliceExpr:
		return st.exprTaint(info, e.X)
	}
	return TaintNone
}

// lvalueAssign records taint flowing into an assignable expression.
func (st *taintState) lvalueAssign(info *types.Info, lhs ast.Expr, t Taint) {
	if t == TaintNone {
		return
	}
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := info.Defs[lhs]
		if obj == nil {
			obj = info.Uses[lhs]
		}
		st.taintVar(obj, t)
	case *ast.SelectorExpr:
		var obj types.Object
		if sel, ok := info.Selections[lhs]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[lhs.Sel]
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			st.taintField(v, t)
		} else {
			st.taintVar(obj, t)
		}
	case *ast.StarExpr:
		st.lvalueAssign(info, lhs.X, t)
	case *ast.IndexExpr:
		st.lvalueAssign(info, lhs.X, t)
	case *ast.ParenExpr:
		st.lvalueAssign(info, lhs.X, t)
	}
}

// fieldObjOf resolves e to a struct-field object when e is a field
// selection, else nil.
func fieldObjOf(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var obj types.Object
	if s, found := info.Selections[sel]; found {
		obj = s.Obj()
	} else {
		obj = info.Uses[sel.Sel]
	}
	if v, isVar := obj.(*types.Var); isVar && v.IsField() {
		return v
	}
	return nil
}

// analyzeFunc propagates taint through one function body and updates
// the function's summary, parameter facts at its call sites, keyed
// composite-literal field taints, atomic-store field taints, the
// fail-closed fact, and the lock facts.
func (st *taintState) analyzeFunc(pkg *Package, ti *TypeInfo, fn *ast.FuncDecl) {
	info := ti.Info
	obj := info.Defs[fn.Name]
	if obj == nil {
		return
	}
	key := objectKey(obj)
	fact := st.funcFactFor(key)

	// Seed parameters from name-keyed call-site facts (interface
	// dispatch: implementations adopt what any caller passed).
	if fn.Type.Params != nil {
		idx := 0
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if pf := st.mf.params[paramKey(fn.Name.Name, idx)]; pf != nil {
					st.taintVar(info.Defs[name], pf.Taint)
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}

	sig, _ := obj.Type().(*types.Signature)
	nres := 0
	if sig != nil {
		nres = sig.Results().Len()
	}
	if len(fact.Results) < nres {
		fact.Results = append(fact.Results, make([]Taint, nres-len(fact.Results))...)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.walkAssign(info, n)
		case *ast.RangeStmt:
			t := st.exprTaint(info, n.X)
			if t != TaintNone {
				if n.Key != nil {
					st.lvalueAssign(info, n.Key, t)
				}
				if n.Value != nil {
					st.lvalueAssign(info, n.Value, t)
				}
			}
		case *ast.ReturnStmt:
			st.walkReturn(info, fact, n, nres)
		case *ast.CallExpr:
			st.walkCallSite(info, n)
		case *ast.CompositeLit:
			st.walkCompositeLit(info, n)
		case *ast.GenDecl:
			// var x = expr inside a body.
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						st.taintVar(info.Defs[name], st.exprTaint(info, vs.Values[i]))
					}
				}
			}
		}
		return true
	})

	// Fail-closed: the function reaches a base handler, directly or
	// through a module callee that does.
	if !fact.FailsClosed && st.reachesFailClosed(key) {
		fact.FailsClosed = true
		st.changed = true
	}

	st.scanLocks(pkg, info, fact, fn)
}

// walkAssign propagates one assignment statement.
func (st *taintState) walkAssign(info *types.Info, n *ast.AssignStmt) {
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		// Tuple assignment from a call (or type assertion / map read).
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			res := st.callResultTaints(info, call)
			for i, lhs := range n.Lhs {
				if i < len(res) {
					st.lvalueAssign(info, lhs, res[i])
				}
			}
			return
		}
		t := st.exprTaint(info, n.Rhs[0])
		for _, lhs := range n.Lhs {
			st.lvalueAssign(info, lhs, t)
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			st.lvalueAssign(info, lhs, st.exprTaint(info, n.Rhs[i]))
		}
	}
}

// walkReturn joins returned expression taints into the summary.
func (st *taintState) walkReturn(info *types.Info, fact *FuncFact, n *ast.ReturnStmt, nres int) {
	if len(n.Results) == 1 && nres > 1 {
		// return f() forwarding a tuple.
		if call, ok := ast.Unparen(n.Results[0]).(*ast.CallExpr); ok {
			res := st.callResultTaints(info, call)
			for i := 0; i < nres && i < len(res); i++ {
				if joined := fact.Results[i].join(res[i]); joined != fact.Results[i] {
					fact.Results[i] = joined
					st.changed = true
				}
			}
		}
		return
	}
	for i, e := range n.Results {
		if i >= len(fact.Results) {
			break
		}
		if joined := fact.Results[i].join(st.exprTaint(info, e)); joined != fact.Results[i] {
			fact.Results[i] = joined
			st.changed = true
		}
	}
}

// walkCallSite records parameter facts for the callee(s) and handles
// atomic write-through methods taining their receiver field.
func (st *taintState) walkCallSite(info *types.Info, call *ast.CallExpr) {
	// Atomic store to a field: p.stamp.Store(v) taints Process.stamp.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && atomicStoreNames[sel.Sel.Name] {
		if field := fieldObjOf(info, sel.X); field != nil {
			t := TaintNone
			for _, arg := range call.Args {
				t = t.join(st.exprTaint(info, arg))
			}
			st.taintField(field, t)
		}
	}

	fn, _, ok := calleeObject(info, call)
	if !ok {
		return
	}
	// Name-keyed parameter facts for every argument with taint, plus
	// direct seeding of same-module static targets' parameter objects
	// (exact, no name aliasing) — the latter covers ordinary
	// function-call chains inside a package precisely.
	for i, arg := range call.Args {
		t := st.exprTaint(info, arg)
		if t == TaintNone {
			continue
		}
		st.taintParamFact(fn.Name(), i, t)
		if sig, isSig := fn.Type().(*types.Signature); isSig && i < sig.Params().Len() {
			st.taintVar(sig.Params().At(i), t)
		}
	}
}

// walkCompositeLit taints keyed struct-literal fields:
// Msg{Time: t} taints Msg.Time.
func (st *taintState) walkCompositeLit(info *types.Info, lit *ast.CompositeLit) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if field, isVar := info.Uses[key].(*types.Var); isVar && field.IsField() {
			st.taintField(field, st.exprTaint(info, kv.Value))
		}
	}
}

// reachesFailClosed reports whether key's function calls (transitively
// through module code) a base fail-closed handler.
func (st *taintState) reachesFailClosed(key string) bool {
	for callee := range st.graph.calls[key] {
		if failClosedNames[baseName(callee)] {
			return true
		}
		if f := st.mf.funcs[callee]; f != nil && f.FailsClosed {
			return true
		}
	}
	return false
}

// baseName strips an objectKey down to its final name segment.
func baseName(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}
