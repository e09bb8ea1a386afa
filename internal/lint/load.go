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

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/cluster").
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load expands patterns relative to dir (a module root or any directory
// inside one), then parses and type-checks each matched package from
// source. Patterns follow the go tool's shape: "./..." walks recursively,
// anything else names one directory. Test files are excluded: the analyzers
// target production code, and several rules (errdrop in particular) are
// deliberately silent in tests.
//
// Every in-module package, whether matched by a pattern or only imported,
// is type-checked from source exactly once per call, so a package and its
// importers share one *types.Package. Everything else (the standard
// library) is read from compiler export data, which the go command on PATH
// produces into its build cache.
func Load(dir string, patterns []string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(abs, patterns)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		done:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// loader is the types.Importer of one Load call: in-module packages are
// type-checked from source and memoised by absolute directory, everything
// else goes to the export-data importer.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	// done memoises finished packages (nil for a test-only directory);
	// loading guards against import cycles.
	done    map[string]*Package
	loading map[string]bool
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	rest, ok := strings.CutPrefix(path, l.modPath)
	if !ok || (rest != "" && rest[0] != '/') {
		return l.std.Import(path)
	}
	pkg, err := l.loadDir(filepath.Join(l.modRoot, filepath.FromSlash(rest)))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no non-test Go files for %s", path)
	}
	return pkg.Types, nil
}

// findModule locates the go.mod enclosing the absolute directory abs and
// returns its root and module path.
func findModule(abs string) (root, path string, err error) {
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
		d = parent
	}
}

// expandPatterns resolves pattern arguments into package directories.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(base, rest)
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lint: walking %s: %w", pat, err)
			}
			continue
		}
		d := filepath.Join(base, pat)
		if !hasGoFiles(d) {
			return nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		add(d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// goFileNames lists the non-test Go files of a directory, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// loadDir parses and type-checks the package in one absolute directory,
// once per loader. A directory with only test files yields (nil, nil).
func (l *loader) loadDir(dir string) (*Package, error) {
	if pkg, ok := l.done[dir]; ok {
		return pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)
	pkg, err := l.check(dir)
	if err != nil {
		return nil, err
	}
	l.done[dir] = pkg
	return pkg, nil
}

func (l *loader) check(dir string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	path, err := importPath(l.modRoot, l.modPath, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

func importPath(modRoot, modPath, dir string) (string, error) {
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, modPath)
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}
