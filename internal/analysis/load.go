package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this repository's module.
// The loader maps "nova/..." imports onto directories under the repo
// root, so packages type-check from source without export data or any
// external loader dependency (go.mod stays empty).
const ModulePath = "nova"

// Package is one loaded, type-checked package: syntax plus type
// information, as the analyzers consume it.
type Package struct {
	Path  string // import path ("nova/internal/hw", "fixture/nopanic", ...)
	Dir   string // directory the files came from
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a set of packages loaded together. All packages share one
// FileSet and one importer, so types.Object identities are comparable
// across packages (the chargecheck call graph depends on this).
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	byPath  map[string]*Package
	cg      *CallGraph // built lazily by CallGraph()
	eff     *Effects   // built lazily by Effects()
	fixErr  error      // the first fixpoint (dataflow.go) that did not converge
	fixRuns []fixRun   // the whole-program fixpoints that converged, in order
}

// fixRun is one engine's whole-program fixpoint that converged.
type fixRun struct {
	what        string
	rounds, cap int
}

// noteFixpoint records err, the failure of a whole-program or local
// fixpoint to converge, unless err is nil or one already failed. The
// suite runner turns it into a load error, because summaries still
// moving may miss findings.
func (p *Program) noteFixpoint(err error) {
	if p.fixErr == nil {
		p.fixErr = err
	}
}

// Package returns the loaded package with the given import path, or nil.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// Loader type-checks packages from source using only the standard
// library. Import resolution:
//
//   - "unsafe" resolves to types.Unsafe;
//   - paths under ModulePath resolve to directories inside Root;
//   - anything else resolves to $GOROOT/src/<path> (standard library).
//
// Build-constrained file selection is delegated to go/build's
// ImportDir, which honours //go:build lines and GOOS/GOARCH suffixes
// without consulting module metadata.
type Loader struct {
	Root string // repository root (directory containing go.mod)

	fset  *token.FileSet
	ctxt  build.Context
	cache map[string]*cacheEntry
}

type cacheEntry struct {
	pkg *Package
	err error
	// busy marks an import in progress, to fail cleanly on cycles
	// instead of recursing forever.
	busy bool
}

// NewLoader returns a loader rooted at the repository root.
func NewLoader(root string) *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false // pure-Go view; cgo files are skipped
	return &Loader{
		Root:  root,
		fset:  token.NewFileSet(),
		ctxt:  ctxt,
		cache: make(map[string]*cacheEntry),
	}
}

// goroot returns the standard library source root.
func goroot() string {
	if g := os.Getenv("GOROOT"); g != "" {
		return g
	}
	return runtime.GOROOT()
}

// dirFor maps an import path to the directory holding its sources.
func (l *Loader) dirFor(path string) (string, error) {
	if path == ModulePath {
		return l.Root, nil
	}
	if strings.HasPrefix(path, ModulePath+"/") {
		return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, ModulePath+"/"))), nil
	}
	dir := filepath.Join(goroot(), "src", filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return "", fmt.Errorf("analysis: cannot resolve import %q (not in module %s, not in GOROOT)", path, ModulePath)
	}
	return dir, nil
}

// sourceFiles lists the build-constrained non-test Go files of dir.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := append([]string{}, bp.GoFiles...)
	sort.Strings(files) // deterministic parse order
	for i, f := range files {
		files[i] = filepath.Join(dir, f)
	}
	return files, nil
}

// LoadDir loads and type-checks the package in dir under the given
// import path, pulling in dependencies from source as needed.
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	return l.load(path, dir)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	pkg, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if e, ok := l.cache[path]; ok {
		if e.busy {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	e := &cacheEntry{busy: true}
	l.cache[path] = e
	e.pkg, e.err = l.loadUncached(path, dir)
	e.busy = false
	return e.pkg, e.err
}

func (l *Loader) loadUncached(path, dir string) (*Package, error) {
	filenames, err := l.sourceFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", l.ctxt.GOARCH),
		// The repo must always type-check; fail loudly on any error.
		Error: nil,
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// LoadRepo loads every package of the repository (directories under
// root containing Go files, skipping testdata, hidden directories, and
// this module's vendor dir if one ever appears) into one Program.
func LoadRepo(root string) (*Program, error) {
	l := NewLoader(root)
	dirs, err := repoPackageDirs(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: l.fset, byPath: make(map[string]*Package)}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := ModulePath
		if rel != "." {
			path = ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[path] = pkg
	}
	return prog, nil
}

// LoadDirs loads the given directories (with synthetic import paths
// derived from their base names) into one Program — used by the fixture
// tests, where each testdata directory is a standalone package.
func LoadDirs(root string, dirs []string) (*Program, error) {
	l := NewLoader(root)
	prog := &Program{Fset: l.fset, byPath: make(map[string]*Package)}
	for _, dir := range dirs {
		path := "fixture/" + filepath.Base(dir)
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[path] = pkg
	}
	return prog, nil
}

// repoPackageDirs walks root and returns every directory containing at
// least one buildable non-test Go file.
func repoPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
