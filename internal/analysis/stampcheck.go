package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// Stampcheck enforces the paper's core sender→receiver rule (§IV-B):
// every IPC data-transfer path must run the timestamp-propagation
// protocol from internal/ipc/stamps.go.
//
// In internal/ipc, every exported send-side method (Send*/Write*) must
// transitively reach StampSlot.onSend or StampSlot.onAccess, and every
// receive-side method (Recv*/Read*) must reach StampSlot.onRecv or
// StampSlot.onAccess — reachability computed over the module call
// graph from each method's own object, so helpers in between are fine
// and two IPC families sharing a method name are judged apart. A new
// IPC family added without wiring the protocol fails the build gate
// immediately.
//
// In internal/kernel, constructing an ipc resource with a literal nil
// stamp store silently disables propagation for that object, so any
// ipc.New*(nil, ...) call is flagged; the kernel must thread
// k.stamps() (which returns nil only under explicit P2 ablation).
var Stampcheck = &Analyzer{
	Name: "stampcheck",
	Doc: "every IPC send/recv path must run the stamp-propagation protocol; " +
		"kernel constructors must not pass a nil stamp store",
	Scope: func(dir string) bool {
		return strings.HasSuffix(dir, "internal/ipc") || strings.HasSuffix(dir, "internal/kernel")
	},
	Run: runStampcheck,
}

// sendReach and recvReach are the stamps.go helpers that satisfy each
// direction. onAccess (the shared-memory fault path) covers both.
var (
	sendReach = []string{"onSend", "onAccess"}
	recvReach = []string{"onRecv", "onAccess"}
)

func runStampcheck(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.Dir, "internal/ipc") {
		checkIPCPropagation(pass)
	} else {
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
	ti := pass.TypeInfo()
	graph := pass.Facts().CallGraph()
	sendTargets := protocolKeys(ti.Pkg, sendReach)
	recvTargets := protocolKeys(ti.Pkg, recvReach)
	for _, f := range pass.Pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			send, recv := transferDirection(fn.Name.Name)
			if !send && !recv {
				continue
			}
			targets, half := recvTargets, "receiver (onRecv/onAccess)"
			if send {
				targets, half = sendTargets, "sender (onSend/onAccess)"
			}
			if !graph.Reaches(objectKey(ti.Info.Defs[fn.Name]), targets) {
				pass.Reportf(fn.Pos(),
					"%s.%s transfers data but never reaches the %s half of the stamp-propagation protocol (paper §IV-B)",
					localTypeName(fn.Recv.List[0].Type), fn.Name.Name, half)
			}
		}
	}
}

// protocolKeys returns the call-graph keys of the package's methods
// with the given names: the protocol helpers an endpoint must reach.
func protocolKeys(pkg *types.Package, names []string) map[string]bool {
	keys := make(map[string]bool)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); slices.Contains(names, m.Name()) {
				keys[objectKey(m)] = true
			}
		}
	}
	return keys
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
