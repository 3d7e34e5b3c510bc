package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Lock-order facts. Every named struct carrying a sync.Mutex/RWMutex
// is a lock class; classes that are the element type of an array or
// slice field anywhere in the module (the kernel's process-table
// shards, the monitor's audit rings) are "sharded": the runtime holds
// one instance per shard and the locking convention is
// one-at-a-time, so acquiring the class while an instance is already
// held is a cross-shard acquisition — an ordering hazard unless done
// in a globally agreed order, which this codebase deliberately avoids
// by never nesting them. scanLocks walks each function linearly,
// tracking the held multiset (defer'd unlocks keep a lock held to the
// end), and records held→acquired edges both for direct acquisitions
// and through calls, using callee Acquires facts. lockordercheck
// turns self-edges on sharded classes and cross-class cycles into
// findings.

// heldLock is one acquisition on the tracking stack.
type heldLock struct {
	class string
	read  bool // RLock rather than Lock
}

// isMutexType reports whether t (after pointer deref) is sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// namedStructOf unwraps t (through one pointer) to a named type whose
// underlying is a struct.
func namedStructOf(t types.Type) (*types.Named, *types.Struct) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return n, st
}

// structHasMutex reports whether st carries a mutex field (including an
// embedded one).
func structHasMutex(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// namedKey renders a named type as pkgpath.Name.
func namedKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// collectLockClasses walks every typed package's named struct types,
// registering field owners (for fact keys) and building the lock-class
// table, then marks classes that shard (element of an array/slice
// field).
func (st *taintState) collectLockClasses() {
	for _, pkg := range st.m.PackagesInDependencyOrder() {
		scope := st.m.TypeInfoFor(pkg).Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, structType := namedStructOf(tn.Type())
			if structType == nil {
				continue
			}
			registerOwner(tn.Name(), structType)
			if structHasMutex(structType) {
				key := namedKey(n)
				if st.classes[key] == nil {
					st.classes[key] = &lockClass{key: key}
				}
			}
		}
	}
	// Sharded detection: element types of array/slice fields.
	for _, pkg := range st.m.PackagesInDependencyOrder() {
		scope := st.m.TypeInfoFor(pkg).Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			_, structType := namedStructOf(tn.Type())
			if structType == nil {
				continue
			}
			for i := 0; i < structType.NumFields(); i++ {
				var elem types.Type
				switch ft := structType.Field(i).Type().Underlying().(type) {
				case *types.Array:
					elem = ft.Elem()
				case *types.Slice:
					elem = ft.Elem()
				default:
					continue
				}
				if n, est := namedStructOf(elem); est != nil && structHasMutex(est) {
					if c := st.classes[namedKey(n)]; c != nil {
						c.sharded = true
					}
				}
			}
		}
	}
}

// lockMethodNames classifies the sync mutex API.
var lockMethodNames = map[string]struct{ acquire, read bool }{
	"Lock":    {acquire: true},
	"RLock":   {acquire: true, read: true},
	"Unlock":  {},
	"RUnlock": {read: true},
}

// lockClassOf resolves the lock class of a mutex-method call
// (x.Lock(), s.mu.Lock(), k.shards[i].mu.Lock()). Returns "" when the
// call is not a sync mutex operation or the class cannot be named.
func (st *taintState) lockClassOf(info *types.Info, call *ast.CallExpr) (class string, op struct{ acquire, read bool }, ok bool) {
	fun, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", op, false
	}
	op, isLockMethod := lockMethodNames[fun.Sel.Name]
	if !isLockMethod {
		return "", op, false
	}
	// Require the resolved method to come from package sync, so
	// Lock/Unlock methods on unrelated types don't register.
	sel, found := info.Selections[fun]
	if !found {
		return "", op, false
	}
	fn, isFn := sel.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", op, false
	}

	x := ast.Unparen(fun.X)
	// Field selection: the owning named struct is the class.
	if field := fieldObjOf(info, x); field != nil && isMutexType(field.Type()) {
		owner := fieldOwner(field)
		if field.Pkg() != nil {
			return field.Pkg().Path() + "." + owner, op, true
		}
		return owner, op, true
	}
	// Embedded mutex: the receiver's named struct type is the class.
	if tv, found := info.Types[x]; found {
		if n, structType := namedStructOf(tv.Type); structType != nil {
			return namedKey(n), op, true
		}
	}
	// Bare mutex variable: the variable itself is the class.
	if id, isIdent := x.(*ast.Ident); isIdent {
		if obj := info.Uses[id]; obj != nil {
			return objectKey(obj), op, true
		}
	}
	return "", op, false
}

// recordEdge notes a held→acquired pair, keeping the first observed
// position for reporting.
func (st *taintState) recordEdge(pkg *Package, fact *FuncFact, held heldLock, acquired heldLock, pos ast.Node) {
	if held.class == acquired.class && held.read && acquired.read {
		// Nested read locks on one class don't order against each
		// other; recording them would fabricate findings.
		return
	}
	e := LockEdge{Held: held.class, Acquired: acquired.class}
	if _, seen := st.edgePos[e]; !seen {
		st.edgePos[e] = reportSite{pkg: pkg, pos: pos.Pos()}
		st.changed = true
	}
	for _, have := range fact.LockEdges {
		if have == e {
			return
		}
	}
	fact.LockEdges = append(fact.LockEdges, e)
	st.changed = true
}

// addAcquire joins a class into the function's Acquires set.
func (st *taintState) addAcquire(fact *FuncFact, class string) {
	i := sort.SearchStrings(fact.Acquires, class)
	if i < len(fact.Acquires) && fact.Acquires[i] == class {
		return
	}
	fact.Acquires = append(fact.Acquires, "")
	copy(fact.Acquires[i+1:], fact.Acquires[i:])
	fact.Acquires[i] = class
	st.changed = true
}

// scanLocks performs the held-region walk of one function body.
func (st *taintState) scanLocks(pkg *Package, info *types.Info, fact *FuncFact, fn *ast.FuncDecl) {
	st.scanLockStmts(pkg, info, fact, fn.Body.List, nil)
}

// scanLockStmts processes statements in order, threading the held
// stack through; nested control flow runs on a copy (a lock taken in a
// branch is assumed released there — the pairing analyzer in lockcheck
// polices that separately).
func (st *taintState) scanLockStmts(pkg *Package, info *types.Info, fact *FuncFact, stmts []ast.Stmt, held []heldLock) []heldLock {
	branch := func(body []ast.Stmt) {
		cp := append([]heldLock(nil), held...)
		st.scanLockStmts(pkg, info, fact, body, cp)
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			held = st.scanLockExpr(pkg, info, fact, s.X, held, false)
		case *ast.DeferStmt:
			if class, op, ok := st.lockClassOf(info, s.Call); ok {
				if !op.acquire {
					// defer mu.Unlock(): held to end of function —
					// leave it on the stack.
					continue
				}
				held = st.acquire(pkg, info, fact, held, heldLock{class: class, read: op.read}, s.Call)
				continue
			}
			st.callWhileHeld(pkg, info, fact, s.Call, held)
		case *ast.GoStmt:
			// The spawned goroutine does not run under the caller's
			// locks; scan its target with an empty held set.
			st.callWhileHeld(pkg, info, fact, s.Call, nil)
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				st.scanLockStmts(pkg, info, fact, lit.Body.List, nil)
			}
		case *ast.IfStmt:
			if s.Init != nil {
				held = st.scanLockStmts(pkg, info, fact, []ast.Stmt{s.Init}, held)
			}
			held = st.scanLockExpr(pkg, info, fact, s.Cond, held, true)
			branch(s.Body.List)
			if s.Else != nil {
				branch([]ast.Stmt{s.Else})
			}
		case *ast.BlockStmt:
			held = st.scanLockStmts(pkg, info, fact, s.List, held)
		case *ast.ForStmt:
			branch(s.Body.List)
		case *ast.RangeStmt:
			held = st.scanLockExpr(pkg, info, fact, s.X, held, true)
			branch(s.Body.List)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					branch(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					branch(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					branch(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			held = st.scanLockStmts(pkg, info, fact, []ast.Stmt{s.Stmt}, held)
		default:
			// Assignments, returns, declarations: calls inside still
			// run while the current set is held.
			ast.Inspect(stmt, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				if call, isCall := n.(*ast.CallExpr); isCall {
					st.callWhileHeld(pkg, info, fact, call, held)
				}
				return true
			})
			// Function literals get their own empty-held scan.
			ast.Inspect(stmt, func(n ast.Node) bool {
				if lit, isLit := n.(*ast.FuncLit); isLit {
					st.scanLockStmts(pkg, info, fact, lit.Body.List, nil)
					return false
				}
				return true
			})
		}
	}
	return held
}

// scanLockExpr handles an expression in statement position: mutex
// operations mutate the held stack, any other calls are checked
// against it. condOnly suppresses stack mutation (conditions cannot
// contain Lock calls, which return nothing, but scan defensively).
func (st *taintState) scanLockExpr(pkg *Package, info *types.Info, fact *FuncFact, e ast.Expr, held []heldLock, condOnly bool) []heldLock {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if isCall && !condOnly {
		if class, op, ok := st.lockClassOf(info, call); ok {
			if op.acquire {
				return st.acquire(pkg, info, fact, held, heldLock{class: class, read: op.read}, call)
			}
			return release(held, class)
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			st.callWhileHeld(pkg, info, fact, c, held)
		}
		return true
	})
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, isLit := n.(*ast.FuncLit); isLit {
			st.scanLockStmts(pkg, info, fact, lit.Body.List, nil)
			return false
		}
		return true
	})
	return held
}

// acquire records edges from everything held to the new class and
// pushes it.
func (st *taintState) acquire(pkg *Package, info *types.Info, fact *FuncFact, held []heldLock, l heldLock, at ast.Node) []heldLock {
	st.addAcquire(fact, l.class)
	for _, h := range held {
		st.recordEdge(pkg, fact, h, l, at)
	}
	return append(held, l)
}

// release pops the most recent acquisition of class.
func release(held []heldLock, class string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].class == class {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// callWhileHeld records edges from the held set to everything the
// callee may acquire (via its Acquires fact) and joins the callee's
// acquisition set into the caller's.
func (st *taintState) callWhileHeld(pkg *Package, info *types.Info, fact *FuncFact, call *ast.CallExpr, held []heldLock) {
	if _, _, isLock := st.lockClassOf(info, call); isLock {
		return
	}
	for _, key := range st.graph.resolveCall(info, call) {
		callee := st.mf.funcs[key]
		if callee == nil {
			continue
		}
		for _, class := range callee.Acquires {
			st.addAcquire(fact, class)
			for _, h := range held {
				st.recordEdge(pkg, fact, h, heldLock{class: class}, call)
			}
		}
	}
}
