package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Module is the parsed and type-checked view of a scan root: every Go
// package found by walking the tree, sharing one file set.
type Module struct {
	// Root is the absolute path the scan started from. Diagnostic file
	// names are relative to it.
	Root string
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Packages holds one entry per directory containing Go files, in
	// sorted directory order. Files of in-package and external test
	// packages live in the same entry: the analyzers scope themselves
	// by file name and directory, not by package identity.
	Packages []*Package

	// Type-checked view built by Load (typecheck.go) and the lazily
	// computed interprocedural fact tables derived from it (facts.go).
	typeInfo   map[string]*TypeInfo // by Package.Dir
	typeOrder  []string             // package dirs in dependency order
	modulePath string               // from go.mod, "" when absent

	factsOnce sync.Once
	facts     *moduleFacts
}

// Package is the set of Go files in one directory.
type Package struct {
	// Dir is the slash-separated directory path relative to the module
	// root; "." for the root itself.
	Dir   string
	Files []*File
}

// File is one parsed source file.
type File struct {
	// Name is the slash-separated path relative to the module root.
	Name string
	// Abs is the absolute on-disk path.
	Abs string
	AST *ast.File

	allows    map[int][]allow
	badAllows []Diagnostic
}

func (p *Package) fileByAbs(abs string) *File {
	for _, f := range p.Files {
		if f.Abs == abs {
			return f
		}
	}
	return nil
}

// skipDirs are directory names never descended into. testdata holds
// analyzer fixtures (scanned only when named as the root explicitly);
// the rest are conventional non-source trees.
var skipDirs = map[string]bool{
	"testdata":     true,
	"vendor":       true,
	"node_modules": true,
}

// Load parses every Go file under root into a Module and type-checks
// its packages. A file that fails to parse or a package that fails to
// type-check aborts the load with that error: the analyzers need the
// whole module's types, and a tree the compiler rejects is not one
// they can judge.
func Load(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolve root %s: %w", root, err)
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("analysis: root %s is not a directory", root)
	}

	m := &Module{Root: abs, Fset: token.NewFileSet()}
	byDir := make(map[string]*Package)
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != abs && (skipDirs[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		astFile, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := "."
		if i := strings.LastIndex(rel, "/"); i >= 0 {
			dir = rel[:i]
		}
		pkg, ok := byDir[dir]
		if !ok {
			pkg = &Package{Dir: dir}
			byDir[dir] = pkg
		}
		f := &File{Name: rel, Abs: path, AST: astFile}
		f.allows, f.badAllows = parseAllows(m.Fset, f)
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}

	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		pkg := byDir[dir]
		sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Name < pkg.Files[j].Name })
		m.Packages = append(m.Packages, pkg)
	}
	if err := m.typeCheck(); err != nil {
		return nil, fmt.Errorf("analysis: type-check: %w", err)
	}
	return m, nil
}
