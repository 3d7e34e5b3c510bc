package analysis

import (
	"go/ast"
	"go/token"
)

// Atomiccheck flags mixed atomic/plain access to the same struct field.
//
// The decision-path refactor moved the kernel's and monitor's shared
// counters and stamps to sync/atomic; the one way to silently undo that
// work is a method that reads or writes such a field with a plain load
// or store. A plain access beside atomic ones is a data race the race
// detector only catches when a test happens to interleave the two, so
// the invariant is checked statically: within a package, a field of a
// named type that any method accesses through a sync/atomic function
// (atomic.AddUint64(&r.f, 1) and friends) must be accessed that way in
// every method. Typed atomics (atomic.Int64 et al.) are immune by
// construction — a plain access to them does not compile — so the rule
// only bites the pointer-style API, where the compiler cannot help.
//
// The analysis is receiver-keyed and reads syntax only: it looks at
// methods of the same local type across the package's non-test files
// and matches accesses through the receiver identifier.
var Atomiccheck = &Analyzer{
	Name: "atomiccheck",
	Doc: "a field accessed through sync/atomic in one method must be accessed " +
		"atomically everywhere: mixed atomic/plain access races",
	Run: runAtomiccheck,
}

// atomicFieldKey identifies a field receiver-keyed: the same field name
// on two different types is two different keys.
type atomicFieldKey struct {
	typ   string
	field string
}

func runAtomiccheck(pass *Pass) {
	atomicFields := make(map[atomicFieldKey]bool)
	type plainUse struct {
		key    atomicFieldKey
		pos    token.Pos
		method string
	}
	var plains []plainUse

	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		atomicName := importName(f.AST, "sync/atomic")
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
				continue
			}
			tname := localTypeName(fn.Recv.List[0].Type)
			recvName := fn.Recv.List[0].Names[0].Name
			if tname == "" || recvName == "_" {
				continue
			}

			// First sweep: &recv.field arguments to sync/atomic calls
			// mark the field atomic and exempt those sites from the
			// plain-access sweep below.
			atomicArg := make(map[*ast.SelectorExpr]bool)
			if atomicName != "" {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					qual, _, ok := selectorCall(call)
					if !ok || qual != atomicName {
						return true
					}
					for _, arg := range call.Args {
						un, ok := arg.(*ast.UnaryExpr)
						if !ok || un.Op != token.AND {
							continue
						}
						sel, ok := un.X.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName {
							atomicFields[atomicFieldKey{tname, sel.Sel.Name}] = true
							atomicArg[sel] = true
						}
					}
					return true
				})
			}

			// Second sweep: every other recv.field selector is a plain
			// access candidate; it is judged once the whole package has
			// been seen, since the atomic use may live in another file.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || atomicArg[sel] {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || id.Name != recvName {
					return true
				}
				plains = append(plains, plainUse{
					key:    atomicFieldKey{tname, sel.Sel.Name},
					pos:    sel.Pos(),
					method: fn.Name.Name,
				})
				return true
			})
		}
	}

	for _, p := range plains {
		if atomicFields[p.key] {
			pass.Reportf(p.pos, "field %s.%s is accessed with sync/atomic elsewhere but plainly in %s: mixed atomic/plain access races",
				p.key.typ, p.key.field, p.method)
		}
	}
}
