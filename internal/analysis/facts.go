package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Facts are how analysis crosses package boundaries, modeled on
// go/analysis: while a package is analyzed, findings about its
// exported (and unexported) objects are recorded in the module-wide
// tables; packages later in dependency order consume the facts of
// the packages they import. Facts are keyed by a stable string path
// for the object ("pkgpath.(Recv).Name" for methods,
// "pkgpath.field.Type.Field" for fields, "methodName#index" for
// parameters).

// Taint is the flowcheck lattice: ⊥ < clock < stamp.
//
//	TaintNone:  not derived from any trusted time source
//	TaintClock: derived from the injected hardware clock
//	            (clock.Clock.Now) — authentic "now", but not yet
//	            evidence of user interaction
//	TaintStamp: read back from the interaction-stamp store — the
//	            hardware-input evidence a grant must rest on
type Taint int

// Taint levels, ordered: joining two taints takes the max.
const (
	TaintNone Taint = iota
	TaintClock
	TaintStamp
)

// String names the lattice level.
func (t Taint) String() string {
	switch t {
	case TaintClock:
		return "clock"
	case TaintStamp:
		return "stamp"
	default:
		return "none"
	}
}

// join is the lattice join (max).
func (t Taint) join(u Taint) Taint {
	if u > t {
		return u
	}
	return t
}

// FuncFact is everything the interprocedural analyzers know about one
// function or method.
type FuncFact struct {
	// Results holds the taint of each result value, in declaration
	// order. Missing/short means untainted.
	Results []Taint
	// FailsClosed marks a function that records fail-closed handling
	// (RecordDenial / SetDegraded, directly or transitively) on some
	// path — a call to such a function covers a nearby error return.
	FailsClosed bool
	// Acquires lists the lock classes this function may acquire,
	// directly or through calls, in sorted order.
	Acquires []string
	// LockEdges records held-while-acquiring pairs observed in the
	// function body: Held is locked when Acquired is taken.
	LockEdges []LockEdge
}

// LockEdge is one held→acquired pair in the lock-order graph.
type LockEdge struct {
	Held     string
	Acquired string
}

// FieldFact carries the taint of a struct field: the join of every
// value the module was seen storing into it (plain assignment or an
// atomic Store/CompareAndSwap/Swap on the field).
type FieldFact struct {
	Taint Taint
}

// ParamFact records, per method name and parameter index, the highest
// taint any call site passed. It is keyed by bare method name (not
// receiver type): interface dispatch — the display server notifying
// through xserver.Policy, IPC adopting through ipc.Stamps — is
// resolved by name across the module, as the call graph resolves it.
// Over-approximating here only makes taint spread wider, which for
// flowcheck's polarity (findings fire on the *absence* of taint) can
// suppress findings, never fabricate them.
type ParamFact struct {
	Taint Taint
}

// objectKey builds the stable string path facts are keyed by. Methods
// include their receiver type; package-level functions and fields of
// named structs are pkgpath-qualified. Objects without a package
// (builtins) or without a name yield "".
func objectKey(obj types.Object) string {
	if obj == nil || obj.Name() == "" {
		return ""
	}
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			return pkgPath + ".(" + recvTypeName(sig.Recv().Type()) + ")." + fn.Name()
		}
		return pkgPath + "." + fn.Name()
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		// Fields are keyed under their owning struct when it is a
		// named type; anonymous-struct fields fall back to a
		// pkg-qualified name (collisions there only merge taint,
		// which is safe for a may-analysis).
		return pkgPath + ".field." + fieldOwner(v) + "." + v.Name()
	}
	return pkgPath + "." + obj.Name()
}

// recvTypeName renders a receiver type as a bare name, through one
// pointer.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		return "*" + recvTypeName(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// fieldOwner maps a field object to its owning named type, consulting
// the index built while walking struct types (see registerOwner). A
// field not found there renders by position, which is still stable
// within one build of the module.
func fieldOwner(v *types.Var) string {
	fieldOwners.RLock()
	owner, ok := fieldOwners.index[v]
	fieldOwners.RUnlock()
	if ok {
		return owner
	}
	return fmt.Sprintf("anon@%d", v.Pos())
}

// fieldOwners is populated during fact computation (registerOwner). It
// is package-global because objectKey has no Module handle; keys only
// need to be stable within a process. The lock exists for callers
// loading several modules from concurrent goroutines.
var fieldOwners = struct {
	sync.RWMutex
	index map[*types.Var]string
}{index: map[*types.Var]string{}}

// registerOwner records that every field of struct type st belongs to
// the named type name.
func registerOwner(name string, st *types.Struct) {
	fieldOwners.Lock()
	for i := 0; i < st.NumFields(); i++ {
		fieldOwners.index[st.Field(i)] = name
	}
	fieldOwners.Unlock()
}

// moduleFacts aggregates the fact tables plus the module call graph,
// built once per module by computeFacts.
type moduleFacts struct {
	graph *CallGraph
	state *taintState // retained propagation state (taint queries)

	// Lookup tables over every package, filled in dependency order,
	// so a package's facts are complete before its importers read
	// them.
	funcs  map[string]*FuncFact
	fields map[string]*FieldFact
	params map[string]*ParamFact
}

// Facts computes (once) and returns the module's fact tables.
func (m *Module) Facts() *ModuleFacts {
	m.factsOnce.Do(func() { m.facts = computeFacts(m) })
	return &ModuleFacts{m: m}
}

// ModuleFacts is the read API handed to analyzers.
type ModuleFacts struct{ m *Module }

// FuncFactByKey resolves a function fact by its stable key.
func (mf *ModuleFacts) FuncFactByKey(key string) *FuncFact {
	return mf.m.facts.funcs[key]
}

// ParamTaint reports the strongest taint any call site passed for the
// named method's parameter index.
func (mf *ModuleFacts) ParamTaint(method string, index int) Taint {
	if f := mf.m.facts.params[paramKey(method, index)]; f != nil {
		return f.Taint
	}
	return TaintNone
}

// CallGraph returns the module call graph.
func (mf *ModuleFacts) CallGraph() *CallGraph {
	return mf.m.facts.graph
}

// ExprTaint evaluates the taint of an expression against the final
// fixpoint state. info must be the TypeInfo.Info of the package the
// expression belongs to.
func (mf *ModuleFacts) ExprTaint(info *types.Info, e ast.Expr) Taint {
	return mf.m.facts.state.exprTaint(info, e)
}

// LockClasses exposes the module's lock classes (key → sharded) for
// lockordercheck.
func (mf *ModuleFacts) LockClasses() map[string]bool {
	out := make(map[string]bool)
	for k, c := range mf.m.facts.state.classes {
		out[k] = c.sharded
	}
	return out
}

// EdgeSite reports where a lock edge was observed (package + position),
// for diagnostics. ok is false for edges the module never recorded.
func (mf *ModuleFacts) EdgeSite(e LockEdge) (pkg *Package, pos token.Pos, ok bool) {
	site, found := mf.m.facts.state.edgePos[e]
	if !found {
		return nil, token.NoPos, false
	}
	return site.pkg, site.pos, true
}

// AllLockEdges returns every held→acquired edge recorded module-wide.
func (mf *ModuleFacts) AllLockEdges() []LockEdge {
	var out []LockEdge
	for e := range mf.m.facts.state.edgePos {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Held != out[j].Held {
			return out[i].Held < out[j].Held
		}
		return out[i].Acquired < out[j].Acquired
	})
	return out
}

func paramKey(method string, index int) string {
	return fmt.Sprintf("%s#%d", method, index)
}
