package analysis

import (
	"go/ast"
	"strings"
)

// Stampcheck enforces the paper's core sender→receiver rule (§IV-B):
// every IPC data-transfer path must run the timestamp-propagation
// protocol from internal/ipc/stamps.go.
//
// In internal/ipc, every exported send-side method (Send*/Write*) must
// transitively reach StampSlot.onSend or StampSlot.onAccess, and every
// receive-side method (Recv*/Read*) must reach StampSlot.onRecv or
// StampSlot.onAccess — reachability computed over the package-local
// call graph, so helpers in between are fine. A new IPC family added
// without wiring the protocol fails the build gate immediately.
//
// In internal/kernel, constructing an ipc resource with a literal nil
// stamp store silently disables propagation for that object, so any
// ipc.New*(nil, ...) call is flagged; the kernel must thread
// k.stamps() (which returns nil only under explicit P2 ablation).
var Stampcheck = &Analyzer{
	Name: "stampcheck",
	Doc: "every IPC send/recv path must run the stamp-propagation protocol; " +
		"kernel constructors must not pass a nil stamp store",
	Run: runStampcheck,
}

// sendReach and recvReach are the stamps.go helpers that satisfy each
// direction. onAccess (the shared-memory fault path) covers both.
var (
	sendReach = map[string]bool{"onSend": true, "onAccess": true}
	recvReach = map[string]bool{"onRecv": true, "onAccess": true}
)

func runStampcheck(pass *Pass) {
	switch {
	case strings.HasSuffix(pass.Pkg.Dir, "internal/ipc"):
		checkIPCPropagation(pass)
	case strings.HasSuffix(pass.Pkg.Dir, "internal/kernel"):
		checkKernelStampStores(pass)
	}
}

// transferDirection classifies an exported method name as a data
// transfer endpoint. Constructors, Close, Len, stat accessors etc.
// carry no payload and are exempt.
func transferDirection(name string) (send, recv bool) {
	switch {
	case name == "Send" || name == "Write" ||
		strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "Write"):
		return true, false
	case name == "Recv" || name == "Read" ||
		strings.HasPrefix(name, "Recv") || strings.HasPrefix(name, "Read"):
		return false, true
	}
	return false, false
}

func checkIPCPropagation(pass *Pass) {
	// Package-local call graph over bare callee names. onSend/onRecv/
	// onAccess are unique within internal/ipc, so name-level
	// reachability is exact enough.
	calls := make(map[string]map[string]bool) // caller decl -> callee names
	type endpoint struct {
		decl string
		fn   *ast.FuncDecl
		send bool
	}
	var endpoints []endpoint

	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			callees := make(map[string]bool)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callees[fun.Name] = true
				case *ast.SelectorExpr:
					callees[fun.Sel.Name] = true
				}
				return true
			})
			calls[name] = callees
			if fn.Name.IsExported() && fn.Recv != nil {
				if send, recv := transferDirection(name); send || recv {
					endpoints = append(endpoints, endpoint{decl: name, fn: fn, send: send})
				}
			}
		}
	}

	reaches := func(from string, targets map[string]bool) bool {
		seen := map[string]bool{from: true}
		queue := []string{from}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for callee := range calls[cur] {
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

	for _, ep := range endpoints {
		targets, half := recvReach, "receiver (onRecv/onAccess)"
		if ep.send {
			targets, half = sendReach, "sender (onSend/onAccess)"
		}
		if !reaches(ep.decl, targets) {
			recv := localTypeName(ep.fn.Recv.List[0].Type)
			pass.Reportf(ep.fn.Pos(),
				"%s.%s transfers data but never reaches the %s half of the stamp-propagation protocol (paper §IV-B)",
				recv, ep.fn.Name.Name, half)
		}
	}
}

func checkKernelStampStores(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		ipcName := importName(f.AST, "overhaul/internal/ipc")
		if ipcName == "" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			qual, name, ok := selectorCall(call)
			if !ok || qual != ipcName || !strings.HasPrefix(name, "New") || len(call.Args) == 0 {
				return true
			}
			if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == "nil" {
				pass.Reportf(call.Args[0].Pos(),
					"%s.%s with a nil stamp store disables P2 propagation: pass k.stamps() so ablation stays explicit",
					qual, name)
			}
			return true
		})
	}
}
