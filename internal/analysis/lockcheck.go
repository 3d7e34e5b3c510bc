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
//     own (local) type carries a mutex — the kernel's ipcTables —
//     are exempt: such fields are immutable pointers or values whose
//     state is guarded by their own lock, which this rule checks at
//     their methods instead. All-atomic fields (every ipc.StampSlot)
//     are declared before the mutex, so no lock guards them.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc: "locks must be released in the same function, and exported methods " +
		"of lock-bearing types must lock before touching guarded fields",
	Run: runLockcheck,
	// Typed since the interprocedural engine landed: guarded-field
	// resolution uses real type info, falling back to the syntactic
	// convention scan when the tree does not type-check.
	NeedsTypes: true,
}

// lockInfo describes one lock-bearing struct type.
type lockInfo struct {
	mutexField string // field name; "Mutex"/"RWMutex" when embedded
	embedded   bool
	guarded    []string          // fields declared after the mutex, in order
	fieldType  map[string]string // guarded field name -> local named type ("" if other)
	// selfGuarded marks guarded fields whose own type carries a mutex
	// (resolved through real type information, so cross-package
	// lock-bearing types count too). Only populated on the typed path;
	// the syntactic path approximates through fieldType + locked.
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
	// Guarded-field resolution prefers real type information: mutex
	// fields are matched by type identity (alias-proof), and the
	// field-guards-itself exemption sees through pointers and package
	// boundaries. Trees that do not type-check (broken fixtures) fall
	// back to the original syntactic convention scan.
	locked := collectLockInfoTyped(pass)
	if locked == nil {
		locked = collectLockInfo(pass.Pkg)
	}

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
// Returns nil when the package has no usable type information.
func collectLockInfoTyped(pass *Pass) map[string]*lockInfo {
	ti := pass.TypeInfo()
	if ti == nil || ti.Pkg == nil || len(ti.Errors) > 0 {
		return nil
	}
	out := make(map[string]*lockInfo)
	scope := ti.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		_, st := namedStructOf(tn.Type())
		if st == nil {
			continue
		}
		info := &lockInfo{fieldType: make(map[string]string), selfGuarded: make(map[string]bool)}
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
			if fn, fst := namedStructOf(field.Type()); fst != nil {
				info.fieldType[field.Name()] = fn.Obj().Name()
				info.selfGuarded[field.Name()] = structHasMutex(fst)
			}
		}
		if seenMutex {
			out[tn.Name()] = info
		}
	}
	return out
}

// collectLockInfo scans the package's struct declarations for
// sync.Mutex / sync.RWMutex fields and records which sibling fields
// they guard (everything declared after the mutex, by convention).
func collectLockInfo(pkg *Package) map[string]*lockInfo {
	out := make(map[string]*lockInfo)
	for _, f := range pkg.Files {
		syncName := importName(f.AST, "sync")
		if syncName == "" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			info := &lockInfo{fieldType: make(map[string]string)}
			seenMutex := false
			for _, field := range st.Fields.List {
				if !seenMutex {
					if name, embedded, ok := mutexFieldName(field, syncName); ok {
						info.mutexField, info.embedded = name, embedded
						seenMutex = true
					}
					continue
				}
				tname := localTypeName(field.Type)
				for _, id := range field.Names {
					info.guarded = append(info.guarded, id.Name)
					info.fieldType[id.Name] = tname
				}
			}
			if seenMutex {
				out[ts.Name.Name] = info
			}
			return true
		})
	}
	return out
}

// mutexFieldName matches a struct field of type sync.Mutex or
// sync.RWMutex, named or embedded.
func mutexFieldName(field *ast.Field, syncName string) (name string, embedded, ok bool) {
	sel, isSel := field.Type.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	qual, isIdent := sel.X.(*ast.Ident)
	if !isIdent || qual.Name != syncName {
		return "", false, false
	}
	if sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex" {
		return "", false, false
	}
	if len(field.Names) == 0 {
		return sel.Sel.Name, true, true
	}
	return field.Names[0].Name, false, true
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
			pass.ReportFix(a.node.Pos(), pairingFix(pass, a.recv, lockVerbs[a.verb], a.node),
				"%s.%s() is never released in this function: pair it with defer %s.%s()",
				a.recv, a.verb, a.recv, lockVerbs[a.verb])
		}
	}
}

// pairingFix proposes inserting `defer recv.Unlock()` directly after
// the unpaired acquisition, indented to the acquisition's column.
func pairingFix(pass *Pass, recv, release string, call *ast.CallExpr) []SuggestedFix {
	col := pass.Position(call.Pos()).Column
	indent := "\n"
	for i := 1; i < col; i++ {
		indent += "\t"
	}
	return []SuggestedFix{{
		Message: "release on exit with defer " + recv + "." + release + "()",
		Edits:   []TextEdit{pass.Edit(call.End(), call.End(), indent+"defer "+recv+"."+release+"()")},
	}}
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
		// pointer/value read here is construction-time immutable. On
		// the typed path the exemption is resolved by type identity
		// (selfGuarded); syntactically it falls back to same-package
		// name lookup.
		if info.selfGuarded != nil {
			if info.selfGuarded[sel.Sel.Name] {
				return true
			}
		} else if ftype := info.fieldType[sel.Sel.Name]; ftype != "" && locked[ftype] != nil {
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
