package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one parsed and type-checked package of the module, with the
// syntax and type information the analyzers consume.
type Package struct {
	// Path is the import path ("repro/internal/voronoi").
	Path string
	// Module is the path of the module the package belongs to ("repro").
	Module string
	// Dir is the absolute directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Fset  *token.FileSet
}

// Loader parses and type-checks packages of a single module from source.
// Imports inside the module resolve to module directories; all other
// imports resolve through the standard library's source importer (which
// type-checks GOROOT packages from source, so no compiled export data is
// needed). A Loader memoizes by import path and may be reused across
// calls; it is not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet

	moduleDir  string
	modulePath string
	std        types.ImporterFrom
	pkgs       map[string]*Package
	inflight   map[string]bool
}

// NewLoader returns a Loader for the module rooted at moduleDir (the
// directory containing go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePathOf(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer consults go/build's default context. Forcing
	// cgo off keeps packages like net on their pure-Go fallback, which is
	// the only flavor that can be type-checked without running cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		moduleDir:  abs,
		modulePath: modPath,
		pkgs:       map[string]*Package{},
		inflight:   map[string]bool{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer over the module + stdlib split.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.moduleDir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.loadModulePath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.moduleDir, 0)
}

func (l *Loader) loadModulePath(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	return l.load(path, filepath.Join(l.moduleDir, filepath.FromSlash(rel)))
}

// LoadDir loads the package in a single directory, which must lie inside
// the module (testdata fixture packages included).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.moduleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.moduleDir)
	}
	path := l.modulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// LoadAll loads every package of the module, skipping testdata, hidden,
// and underscore-prefixed directories, in deterministic path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.moduleDir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			// The walk interleaves a directory's files with its
			// subdirectories, so a directory can come up more than once.
			if dir := filepath.Dir(p); !slices.Contains(dirs, dir) {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.inflight[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.inflight[path] = true
	defer delete(l.inflight, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Module: l.modulePath, Dir: dir, Files: files, Types: tpkg, Info: info, Fset: l.Fset}
	l.pkgs[path] = pkg
	return pkg, nil
}
