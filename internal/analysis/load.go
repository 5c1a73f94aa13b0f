package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("hydra/internal/buffer", or dir name for fixtures)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one source tree without
// invoking the go command: module-local imports are resolved by
// recursive source type-checking, everything else (the standard
// library) through the compiler source importer. This keeps hydra-vet
// runnable offline and dependency-free.
type Loader struct {
	// Root is the directory holding the tree to load.
	Root string
	// Module is the tree's module path (import-path prefix). Empty
	// means import paths are directory names relative to Root, the
	// layout analyzer test fixtures use.
	Module string
	// IncludeTests includes *_test.go files of the package under test
	// (in-package tests only; external _test packages are skipped).
	IncludeTests bool

	fset *token.FileSet
	ctx  build.Context
	std  types.ImporterFrom
	info *types.Info
	// pkgs memoizes loads by import path; a nil entry marks a load in
	// progress (import cycle).
	pkgs map[string]*Package
}

// NewLoader returns a loader over the tree rooted at root. If module
// is empty, root/go.mod is consulted; failing that, import paths are
// directory-relative.
func NewLoader(root, module string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if module == "" {
		module = modulePath(filepath.Join(abs, "go.mod"))
	}
	fset := token.NewFileSet()
	ld := &Loader{
		Root:   abs,
		Module: module,
		fset:   fset,
		ctx:    build.Default,
		pkgs:   make(map[string]*Package),
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	ld.std = std
	return ld, nil
}

// modulePath extracts the module path from a go.mod, or returns "".
func modulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Load loads the packages named by patterns. Supported patterns:
// "./..." (every package under Root), "dir/..." and plain directory
// paths relative to Root.
func (ld *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			expanded, err := ld.expand(ld.Root)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(ld.Root, strings.TrimSuffix(pat, "/..."))
			expanded, err := ld.expand(base)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		default:
			add(filepath.Join(ld.Root, pat))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// expand returns every directory under base containing buildable Go
// files, skipping testdata, hidden and underscore directories.
func (ld *Loader) expand(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// importPathFor maps a directory under Root to its import path.
func (ld *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.Root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if ld.Module != "" {
			return ld.Module, nil
		}
		return ".", nil
	}
	if ld.Module != "" {
		return path.Join(ld.Module, rel), nil
	}
	return rel, nil
}

// loadDir parses and type-checks the package in dir. Directories with
// no buildable files yield (nil, nil).
func (ld *Loader) loadDir(dir string) (*Package, error) {
	ipath, err := ld.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return ld.loadPath(ipath, dir)
}

func (ld *Loader) loadPath(ipath, dir string) (*Package, error) {
	if pkg, done := ld.pkgs[ipath]; done {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", ipath)
		}
		return pkg, nil
	}
	ld.pkgs[ipath] = nil // in progress

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !ld.IncludeTests {
			continue
		}
		match, err := ld.ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", filepath.Join(dir, name), err)
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			continue // external test package; out of scope
		}
		if pkgName == "" || !isTest {
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		delete(ld.pkgs, ipath)
		return nil, nil
	}
	conf := types.Config{
		Importer: (*loaderImporter)(ld),
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	tpkg, err := conf.Check(ipath, ld.fset, files, ld.info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", ipath, err)
	}
	pkg := &Package{
		Path:  ipath,
		Dir:   dir,
		Fset:  ld.fset,
		Files: files,
		Types: tpkg,
		Info:  ld.info,
	}
	ld.pkgs[ipath] = pkg
	return pkg, nil
}

// loaderImporter adapts the Loader to types.Importer: tree-local
// import paths load recursively from source, all others go to the
// standard-library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(ipath string) (*types.Package, error) {
	ld := (*Loader)(li)
	if dir, ok := ld.localDir(ipath); ok {
		pkg, err := ld.loadPath(ipath, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return ld.std.Import(ipath)
}

// localDir reports whether ipath names a package inside the loaded
// tree and returns its directory.
func (ld *Loader) localDir(ipath string) (string, bool) {
	if ld.Module != "" {
		if ipath == ld.Module {
			return ld.Root, true
		}
		if rest, ok := strings.CutPrefix(ipath, ld.Module+"/"); ok {
			return filepath.Join(ld.Root, filepath.FromSlash(rest)), true
		}
		return "", false
	}
	dir := filepath.Join(ld.Root, filepath.FromSlash(ipath))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir, true
	}
	return "", false
}
