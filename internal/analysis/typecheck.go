package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file is the framework's type-checked, cross-package engine.
// Load type-checks the module in dependency order with go/types;
// module-internal imports resolve to the packages checked here, and
// everything else (the standard library) resolves through the stdlib
// source importer, so go.mod stays dependency-free. Types are not
// optional: a tree that fails to type-check fails the load, the same
// way a syntax error does, so every analyzer can rely on a complete
// TypeInfo for every package and on the module-wide facts.

// TypeInfo is the type-checked view of one package: the go/types
// package object plus the expression-level annotation maps the typed
// analyzers read.
type TypeInfo struct {
	// Pkg is the checked package. A directory holding only test files
	// checks as an empty package.
	Pkg *types.Package
	// Info holds the annotation maps, populated for the package's
	// non-test files.
	Info *types.Info
}

// srcImporters caches stdlib source importers per GOROOT. The importer
// re-type-checks stdlib packages from source on first use (~1 s for
// the transitive closure of fmt), so sharing one instance per process
// matters for the test suite, which loads many fixture trees.
// go/importer instances are bound to a FileSet, but positions inside
// stdlib objects are never reported by this framework, so sharing one
// across modules only skews positions nobody prints.
var srcImporters struct {
	sync.Mutex
	imp types.ImporterFrom
}

func stdlibImporter() types.ImporterFrom {
	srcImporters.Lock()
	defer srcImporters.Unlock()
	if srcImporters.imp == nil {
		srcImporters.imp, _ = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	}
	return srcImporters.imp
}

// importStdlib resolves a non-module import path, serializing access
// to the shared source importer (it is not documented concurrency-safe).
func importStdlib(path, dir string) (*types.Package, error) {
	imp := stdlibImporter()
	if imp == nil {
		return nil, fmt.Errorf("no stdlib importer available")
	}
	srcImporters.Lock()
	defer srcImporters.Unlock()
	return imp.ImportFrom(path, dir, 0)
}

// TypeInfoFor returns the type-checked view of pkg.
func (m *Module) TypeInfoFor(pkg *Package) *TypeInfo {
	return m.typeInfo[pkg.Dir]
}

// declares reports whether p is one of the module's own checked
// packages.
func (m *Module) declares(p *types.Package) bool {
	if p == nil {
		return false
	}
	dir := p.Path()
	if m.modulePath != "" {
		rest, ok := strings.CutPrefix(dir, m.modulePath+"/")
		switch {
		case dir == m.modulePath:
			dir = "."
		case ok:
			dir = rest
		default:
			return false
		}
	}
	ti := m.typeInfo[dir]
	return ti != nil && ti.Pkg == p
}

// PackagesInDependencyOrder returns the module's packages sorted so
// that every package appears after the module-internal packages it
// imports. Packages outside any import cycle keep their sorted-dir
// order as a tiebreak.
func (m *Module) PackagesInDependencyOrder() []*Package {
	out := make([]*Package, 0, len(m.typeOrder))
	byDir := make(map[string]*Package, len(m.Packages))
	for _, pkg := range m.Packages {
		byDir[pkg.Dir] = pkg
	}
	for _, dir := range m.typeOrder {
		if pkg := byDir[dir]; pkg != nil {
			out = append(out, pkg)
		}
	}
	return out
}

// readModulePath extracts the module path from root/go.mod.
func readModulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest != "" {
				return strings.Trim(rest, `"`)
			}
		}
	}
	return ""
}

// importPathOf maps a package directory to its module import path.
func importPathOf(modPath, dir string) string {
	if dir == "." {
		return modPath
	}
	return modPath + "/" + dir
}

// typedFiles returns the files presented to the type checker: the
// non-test files of the directory's primary (non _test) package. Test
// files are analyzed syntactically only — they would need the test
// package variants, and no invariant the typed analyzers enforce lives
// in test code.
func typedFiles(pkg *Package) []*ast.File {
	var files []*ast.File
	pkgName := ""
	for _, f := range pkg.Files {
		if isTestFile(f.Name) {
			continue
		}
		name := f.AST.Name.Name
		if pkgName == "" {
			pkgName = name
		}
		if name != pkgName {
			// Mixed package names in one directory (a fixture tree
			// quirk); keep the first clause's package.
			continue
		}
		files = append(files, f.AST)
	}
	return files
}

// moduleImporter resolves imports while checking one package:
// module-internal paths come from the already-checked packages,
// everything else from the stdlib source importer.
type moduleImporter struct {
	m   *Module
	dir string // absolute directory of the importing package
}

func (mi moduleImporter) Import(path string) (*types.Package, error) {
	if mi.m.modulePath != "" {
		if path == mi.m.modulePath {
			if ti := mi.m.typeInfo["."]; ti != nil && ti.Pkg != nil {
				return ti.Pkg, nil
			}
			return nil, fmt.Errorf("module package %s not checked yet", path)
		}
		if rest, ok := strings.CutPrefix(path, mi.m.modulePath+"/"); ok {
			if ti := mi.m.typeInfo[rest]; ti != nil && ti.Pkg != nil {
				return ti.Pkg, nil
			}
			return nil, fmt.Errorf("module package %s not checked yet", path)
		}
	}
	return importStdlib(path, mi.dir)
}

// typeCheck orders packages by dependency, checks each, and records
// per-package TypeInfo. It returns the first type error.
func (m *Module) typeCheck() error {
	m.typeInfo = make(map[string]*TypeInfo)
	m.modulePath = readModulePath(m.Root)

	// Import graph among module packages, by directory.
	byPath := make(map[string]string) // import path -> dir
	if m.modulePath != "" {
		for _, pkg := range m.Packages {
			byPath[importPathOf(m.modulePath, pkg.Dir)] = pkg.Dir
		}
	}
	deps := make(map[string][]string) // dir -> imported module dirs
	for _, pkg := range m.Packages {
		seen := map[string]bool{}
		for _, f := range pkg.Files {
			if isTestFile(f.Name) {
				continue
			}
			for _, imp := range f.AST.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if dir, ok := byPath[p]; ok && dir != pkg.Dir && !seen[dir] {
					seen[dir] = true
					deps[pkg.Dir] = append(deps[pkg.Dir], dir)
				}
			}
		}
		sort.Strings(deps[pkg.Dir])
	}

	// Topological order (DFS; import cycles cannot happen in
	// compilable Go, and a cycle in a broken fixture just yields a
	// "not checked yet" type error for the back edge).
	state := make(map[string]int) // 0 unseen, 1 visiting, 2 done
	var order []string
	var visit func(dir string)
	visit = func(dir string) {
		if state[dir] != 0 {
			return
		}
		state[dir] = 1
		for _, d := range deps[dir] {
			visit(d)
		}
		state[dir] = 2
		order = append(order, dir)
	}
	for _, pkg := range m.Packages {
		visit(pkg.Dir)
	}
	m.typeOrder = order

	byDir := make(map[string]*Package, len(m.Packages))
	for _, pkg := range m.Packages {
		byDir[pkg.Dir] = pkg
	}
	for _, dir := range order {
		ti := &TypeInfo{
			Info: &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
				Implicits:  make(map[ast.Node]types.Object),
			},
		}
		m.typeInfo[dir] = ti
		path := importPathOf(m.modulePath, dir)
		if m.modulePath == "" {
			// No go.mod at the root: packages still check against the
			// stdlib, they just cannot import each other.
			path = dir
		}
		conf := types.Config{
			Importer: moduleImporter{m: m, dir: filepath.Join(m.Root, filepath.FromSlash(dir))},
		}
		pkgObj, err := conf.Check(path, m.Fset, typedFiles(byDir[dir]), ti.Info)
		if err != nil {
			return err
		}
		ti.Pkg = pkgObj
	}
	return nil
}
