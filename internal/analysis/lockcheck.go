package analysis

import (
	"go/ast"
	"go/types"
)

// Lockcheck enforces the locking discipline of the simulated kernel's
// shared structures. Two rules:
//
//  1. Pairing: within a function, every X.Lock() must have a matching
//     X.Unlock() (deferred or explicit) on the same receiver
//     expression, and likewise RLock/RUnlock. The codebase uses both
//     the defer idiom and short explicit critical sections that
//     release before blocking work; what is never acceptable is a
//     lock with no release in sight.
//
//  2. Guarded fields: the repository convention (documented in
//     internal/ipc and internal/kernel) declares a struct's mutex
//     before the fields it guards. An exported method of a
//     lock-bearing type that reads or writes a field declared after
//     the mutex without ever acquiring it is flagged. Fields whose
//     own type carries a mutex — the kernel's ipcTables — are
//     exempt: such fields are immutable pointers or values whose
//     state is guarded by their own lock, which this rule checks at
//     their methods instead. All-atomic fields (every ipc.StampSlot)
//     are declared before the mutex, so no lock guards them.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc: "locks must be released in the same function, and exported methods " +
		"of lock-bearing types must lock before touching guarded fields",
	Run: runLockcheck,
}

// lockInfo describes one lock-bearing struct type.
type lockInfo struct {
	mutexField string // field name; "Mutex"/"RWMutex" when embedded
	embedded   bool
	guarded    []string // fields declared after the mutex, in order
	// selfGuarded marks guarded fields whose own type carries a mutex
	// (resolved through type information, so cross-package
	// lock-bearing types count too).
	selfGuarded map[string]bool
}

func (li *lockInfo) isGuarded(name string) bool {
	for _, g := range li.guarded {
		if g == name {
			return true
		}
	}
	return false
}

func runLockcheck(pass *Pass) {
	locked := collectLockInfoTyped(pass)

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockPairing(pass, fn)
			if !isTestFile(f.Name) {
				checkGuardedFields(pass, fn, locked)
			}
		}
	}
}

// collectLockInfoTyped builds the lock-bearing type table from the
// package's type information: the first field of type sync.Mutex or
// sync.RWMutex (by type identity, not spelling) starts the guarded
// region, and a guarded field is exempt when its own type — resolved
// through pointers and across packages — carries a mutex of its own.
func collectLockInfoTyped(pass *Pass) map[string]*lockInfo {
	out := make(map[string]*lockInfo)
	scope := pass.TypeInfo().Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		_, st := namedStructOf(tn.Type())
		if st == nil {
			continue
		}
		info := &lockInfo{selfGuarded: make(map[string]bool)}
		seenMutex := false
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if !seenMutex {
				if isMutexType(field.Type()) {
					info.mutexField = field.Name()
					info.embedded = field.Embedded()
					seenMutex = true
				}
				continue
			}
			info.guarded = append(info.guarded, field.Name())
			if _, fst := namedStructOf(field.Type()); fst != nil {
				info.selfGuarded[field.Name()] = structHasMutex(fst)
			}
		}
		if seenMutex {
			out[tn.Name()] = info
		}
	}
	return out
}

// localTypeName extracts the bare local type identifier of a field
// type, through one level of pointer.
func localTypeName(t ast.Expr) string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// lockVerbs pairs each acquisition method with its release.
var lockVerbs = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// checkLockPairing flags acquisitions with no release on the same
// receiver expression anywhere in the function (nested function
// literals included, so defer-in-closure releases count).
func checkLockPairing(pass *Pass, fn *ast.FuncDecl) {
	type acquisition struct {
		recv string
		verb string
		node *ast.CallExpr
	}
	var acquired []acquisition
	released := make(map[string]bool) // "recv\x00verb"
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		recv := types.ExprString(sel.X)
		switch sel.Sel.Name {
		case "Lock", "RLock":
			acquired = append(acquired, acquisition{recv: recv, verb: sel.Sel.Name, node: call})
		case "Unlock", "RUnlock":
			released[recv+"\x00"+sel.Sel.Name] = true
		}
		return true
	})
	for _, a := range acquired {
		if !released[a.recv+"\x00"+lockVerbs[a.verb]] {
			pass.Reportf(a.node.Pos(),
				"%s.%s() is never released in this function: pair it with defer %s.%s()",
				a.recv, a.verb, a.recv, lockVerbs[a.verb])
		}
	}
}

// checkGuardedFields flags exported methods of lock-bearing types that
// touch guarded fields without acquiring the type's own mutex.
func checkGuardedFields(pass *Pass, fn *ast.FuncDecl, locked map[string]*lockInfo) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || !fn.Name.IsExported() {
		return
	}
	tname := localTypeName(fn.Recv.List[0].Type)
	info := locked[tname]
	if info == nil || len(fn.Recv.List[0].Names) == 0 {
		return
	}
	recvName := fn.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return
	}

	// The method's own acquisition expression: r.mu for a named field,
	// r itself for an embedded mutex.
	ownLock := recvName + "." + info.mutexField
	if info.embedded {
		ownLock = recvName
	}
	acquires := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") && types.ExprString(sel.X) == ownLock {
			acquires = true
			return false
		}
		return true
	})
	if acquires {
		return
	}
	reported := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != recvName || !info.isGuarded(sel.Sel.Name) {
			return true
		}
		// A field whose own type is lock-bearing guards itself; the
		// pointer/value read here is construction-time immutable.
		if info.selfGuarded[sel.Sel.Name] {
			return true
		}
		mutex := "the " + info.mutexField + " lock"
		if info.embedded {
			mutex = "the embedded " + info.mutexField
		}
		pass.Reportf(sel.Pos(), "exported method %s.%s reads %s.%s, guarded by %s, without acquiring it",
			tname, fn.Name.Name, recvName, sel.Sel.Name, mutex)
		reported = true
		return false
	})
}
