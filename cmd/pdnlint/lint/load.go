package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module with only
// the standard library: module-local import paths are mapped onto
// directories under the module root, everything else (the standard library)
// is resolved by the go/importer source importer, which type-checks GOROOT
// sources directly — no `go list`, no export data, no network.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // directory containing go.mod
	ModulePath string // module path from go.mod, e.g. "pdnsim"

	std     types.Importer
	typed   map[string]*types.Package // import path → type info (module + std)
	pkgs    map[string]*Package       // import path → analyzed module package
	loading map[string]bool           // cycle guard for module packages

	uses   map[types.Object]bool // deadapi's module-wide use set (moduleUses)
	usesOf int                   // len(pkgs) when uses was built
}

// NewLoader builds a loader rooted at the directory containing go.mod,
// searching upward from dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		typed:      make(map[string]*types.Package),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the first go.mod and reads its module
// path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}

// Import implements types.Importer so module packages can import each other
// and the standard library transparently during type checking.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := l.typed[path]; ok {
		return tp, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(path, l.ModulePath)
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	tp, err := l.std.Import(path)
	if err != nil {
		return nil, fmt.Errorf("stdlib import %q: %w", path, err)
	}
	l.typed[path] = tp
	return tp, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Test files (_test.go) are skipped: the contracts pdnlint
// enforces apply to production code, and several (float equality, exact
// error text, context.Background) are legitimately violated in tests.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tp, err := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors in %s: %v", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	p := &Package{
		Path: importPath, Dir: dir, Fset: l.Fset,
		Files: files, Types: tp, Info: info, loader: l,
	}
	p.scanDirectives()
	l.typed[importPath] = tp
	l.pkgs[importPath] = p
	return p, nil
}

// LoadModule loads every package under the module root (skipping testdata
// fixtures and hidden directories) and returns them sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if n == "testdata" || (strings.HasPrefix(n, ".") && path != l.ModuleRoot) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	seen := make(map[string]bool)
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		p, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
