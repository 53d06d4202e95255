// Package load parses and type-checks Go packages for the ivyvet
// analyzers using only the standard library.
//
// The x/tools ecosystem would normally supply this (go/packages for the
// driver, analysistest's GOPATH loader for golden tests); building
// offline without third-party modules, ivyvet brings its own small
// whole-program loader instead. It resolves imports from three sources,
// in order:
//
//  1. the enclosing module (ModulePath/ModuleRoot from go.mod), so
//     "repro/internal/core" maps to <root>/internal/core;
//  2. an optional SrcRoot overlay — the analysistest-style testdata/src
//     tree, where golden-test packages and their stub dependencies live
//     under src/<import path>;
//  3. the standard library, via go/importer's source importer.
//
// Module and overlay packages are compiled from source here, so their
// syntax trees stay available to analyzers (Program.Syntax); standard
// library packages arrive as bare type information.
package load

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
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path. External test packages ("foo_test")
	// carry their real synthetic path; use PathNoTest for scope checks.
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// PathNoTest returns the import path with any external-test "_test"
// suffix stripped.
func (p *Package) PathNoTest() string { return strings.TrimSuffix(p.PkgPath, "_test") }

// Program is the result of a Load: the requested packages plus the
// syntax of every package compiled from source on their behalf.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// all holds every package compiled from source during the load —
	// the requested packages plus their in-module / overlay
	// dependencies — deduplicated per import path with the requested
	// (tests-included) image winning. See All.
	all []*Package

	// images holds every distinct compiled image, duplicates included
	// (a path compiled both with and without test files contributes
	// two images). See Images.
	images []*Package

	syntax map[string][]*ast.File
}

// Images returns every distinct compiled package image of the load. A
// path requested with Config.Tests that is also imported by another
// package appears twice — once with test files, once without — with
// the same PkgPath but disjoint type-object universes. Consumers that
// match type identities across packages (the call graph's interface
// implementation search) must consider every image; everyone else
// wants All.
func (pr *Program) Images() []*Package { return pr.images }

// All returns every source-compiled package of the load: the requested
// packages first, in request order, then dependency packages that were
// compiled on their behalf but not themselves requested, sorted by
// path. The whole-program call graph is built over this set, so
// reachability queries traverse helper packages that no analyzer was
// asked to report on.
//
// One subtlety this method hides: when Config.Tests is set, a package
// can be compiled twice — once with its test files (as requested) and
// once without (as a dependency of another package). Both images carry
// the same import path but distinct type objects. All returns only one
// Package per path (preferring the requested, tests-included image);
// the call graph bridges the two images by resolving functions through
// stable symbol keys rather than object identity.
func (pr *Program) All() []*Package { return pr.all }

// Syntax returns the parsed files of an import path compiled from
// source during the load, or nil for paths that came from the standard
// library (or were never loaded).
func (pr *Program) Syntax(path string) []*ast.File { return pr.syntax[path] }

// Config directs a load.
type Config struct {
	// ModuleRoot is the directory holding go.mod; ModulePath is the
	// module's path. Leave both empty when loading only an overlay tree.
	ModuleRoot string
	ModulePath string

	// SrcRoot, when set, resolves import paths under SrcRoot/<path>
	// before the standard library — the golden tests' testdata/src tree.
	SrcRoot string

	// Tests includes _test.go files of the requested packages (and
	// analyzes external test packages alongside them).
	Tests bool
}

// Load type-checks the packages named by patterns. A pattern is either
// an import path or "./..." (all packages under ModuleRoot).
func (c *Config) Load(patterns ...string) (*Program, error) {
	ld := &loader{
		cfg:        *c,
		fset:       token.NewFileSet(),
		pkgs:       make(map[string]*entry),
		syntax:     make(map[string][]*ast.File),
		sizes:      types.SizesFor("gc", runtime.GOARCH),
		inProgress: make(map[string]bool),
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)

	var paths []string
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if c.ModuleRoot == "" {
				return nil, fmt.Errorf("load: pattern %q requires a module root", pat)
			}
			dirs, err := modulePackageDirs(c.ModuleRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				rel, err := filepath.Rel(c.ModuleRoot, d)
				if err != nil {
					return nil, err
				}
				if rel == "." {
					paths = append(paths, c.ModulePath)
				} else {
					paths = append(paths, c.ModulePath+"/"+filepath.ToSlash(rel))
				}
			}
		default:
			paths = append(paths, pat)
		}
	}

	pr := &Program{Fset: ld.fset, syntax: ld.syntax}
	for _, path := range paths {
		e, err := ld.load(path, c.Tests)
		if err != nil {
			return nil, err
		}
		pr.Packages = append(pr.Packages, &Package{
			PkgPath: path, Dir: e.dir, Files: e.files, Types: e.pkg, Info: e.info,
		})
		if c.Tests {
			xt, err := ld.loadXTest(path, e)
			if err != nil {
				return nil, err
			}
			if xt != nil {
				pr.Packages = append(pr.Packages, xt)
			}
		}
	}

	// Assemble All: requested images first, then source-compiled
	// dependencies not already covered, in sorted path order for
	// deterministic downstream iteration.
	seen := make(map[string]bool, len(pr.Packages))
	for _, p := range pr.Packages {
		seen[p.PkgPath] = true
		pr.all = append(pr.all, p)
	}
	var depPaths []string
	deps := make(map[string]*entry)
	for k, e := range ld.pkgs {
		path := strings.TrimSuffix(k, "\x00test")
		if e.files == nil || seen[path] || deps[path] != nil {
			continue // stdlib, or already a requested image
		}
		deps[path] = e
		depPaths = append(depPaths, path)
	}
	sort.Strings(depPaths)
	for _, path := range depPaths {
		e := deps[path]
		pr.all = append(pr.all, &Package{
			PkgPath: path, Dir: e.dir, Files: e.files, Types: e.pkg, Info: e.info,
		})
	}

	// images: every distinct compiled image, including the duplicate
	// plain image of a tests-included requested package. Sorted by key
	// for determinism.
	var imgKeys []string
	for k, e := range ld.pkgs {
		if e.files != nil {
			imgKeys = append(imgKeys, k)
		}
	}
	sort.Strings(imgKeys)
	for _, k := range imgKeys {
		e := ld.pkgs[k]
		path := strings.TrimSuffix(k, "\x00test")
		pr.images = append(pr.images, &Package{
			PkgPath: path, Dir: e.dir, Files: e.files, Types: e.pkg, Info: e.info,
		})
	}
	for _, p := range pr.Packages {
		if strings.HasSuffix(p.PkgPath, "_test") {
			pr.images = append(pr.images, p)
		}
	}
	return pr, nil
}

// modulePackageDirs walks root collecting every directory containing Go
// files, skipping VCS metadata and testdata trees.
func modulePackageDirs(root string) ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

type entry struct {
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	cfg        Config
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*entry // key: path + ("\x00test" when tests included)
	syntax     map[string][]*ast.File
	sizes      types.Sizes
	inProgress map[string]bool
}

// dirFor resolves an import path to a source directory, or "" for the
// standard library.
func (ld *loader) dirFor(path string) string {
	if ld.cfg.ModulePath != "" {
		if path == ld.cfg.ModulePath {
			return ld.cfg.ModuleRoot
		}
		if rest, ok := strings.CutPrefix(path, ld.cfg.ModulePath+"/"); ok {
			return filepath.Join(ld.cfg.ModuleRoot, filepath.FromSlash(rest))
		}
	}
	if ld.cfg.SrcRoot != "" {
		dir := filepath.Join(ld.cfg.SrcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

func key(path string, tests bool) string {
	if tests {
		return path + "\x00test"
	}
	return path
}

// load compiles one package from source (module or overlay), or fetches
// it from the standard library importer.
func (ld *loader) load(path string, tests bool) (*entry, error) {
	if e, ok := ld.pkgs[key(path, tests)]; ok {
		return e, nil
	}
	dir := ld.dirFor(path)
	if dir == "" {
		pkg, err := ld.std.Import(path)
		if err != nil {
			return nil, fmt.Errorf("load: importing %s: %w", path, err)
		}
		e := &entry{pkg: pkg}
		ld.pkgs[key(path, tests)] = e
		return e, nil
	}
	if ld.inProgress[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	ld.inProgress[path] = true
	defer delete(ld.inProgress, path)

	files, err := ld.parseDir(dir, tests, false, "")
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s (%s)", dir, path)
	}
	pkg, info, err := ld.check(path, files)
	if err != nil {
		return nil, err
	}
	e := &entry{dir: dir, files: files, pkg: pkg, info: info}
	ld.pkgs[key(path, tests)] = e
	// Record syntax for cross-package annotation lookups. A with-tests
	// load is a superset of the plain one; either serves.
	if _, ok := ld.syntax[path]; !ok || tests {
		ld.syntax[path] = files
	}
	return e, nil
}

// loadXTest compiles the external test package ("package foo_test")
// sharing under's directory, or returns nil if there is none. Imports —
// including of the package under test — resolve to the plain (non-test)
// package images, so every dependency chain agrees on one instance per
// path. (The cost: export_test.go helpers are invisible to the external
// test package. The repository has none; a load failure here is the
// signal to teach the loader about them.)
func (ld *loader) loadXTest(path string, under *entry) (*Package, error) {
	files, err := ld.parseDir(under.dir, true, true, under.pkg.Name()+"_test")
	if err != nil || len(files) == 0 {
		return nil, err
	}
	pkg, info, err := ld.check(path+"_test", files)
	if err != nil {
		return nil, err
	}
	ld.syntax[path+"_test"] = files
	return &Package{PkgPath: path + "_test", Dir: under.dir, Files: files, Types: pkg, Info: info}, nil
}

// parseDir parses a directory's Go files. tests selects _test.go files;
// xtestOnly restricts to files of the external test package named want.
func (ld *loader) parseDir(dir string, tests, xtestOnly bool, want string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !tests {
			continue
		}
		// Honour build constraints as a default `go build` would: of a
		// pair of files split by a tag (internal/wire's poison_on/off),
		// exactly one belongs to the package.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		fname := f.Name.Name
		if xtestOnly {
			if fname == want {
				files = append(files, f)
			}
			continue
		}
		if strings.HasSuffix(fname, "_test") {
			continue // external test package; handled by loadXTest
		}
		if pkgName == "" {
			pkgName = fname
		} else if fname != pkgName {
			return nil, fmt.Errorf("load: %s: mixed packages %s and %s", dir, pkgName, fname)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path.
func (ld *loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			e, err := ld.load(p, false)
			if err != nil {
				return nil, err
			}
			return e.pkg, nil
		}),
		Sizes: ld.sizes,
		Error: func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, ld.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, nil, fmt.Errorf("load: type errors in %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	return pkg, info, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModulePathFromGoMod reads the module path from root/go.mod.
func ModulePathFromGoMod(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("load: no module line in %s/go.mod", root)
}
