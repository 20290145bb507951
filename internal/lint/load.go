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

// Load parses and type-checks the packages selected by patterns,
// resolved relative to root (the module directory, or any directory
// inside it — Load walks up to the nearest go.mod).
//
// Patterns follow the go tool's shape: "./..." walks recursively,
// "./dir" names one package directory. The recursive walk skips
// testdata, vendor, hidden, and underscore-prefixed directories, but a
// pattern whose root is itself inside testdata is honoured — that is
// how the analyzer tests (and the CLI's acceptance check) load the
// seeded-violation fixtures.
//
// All packages share one type universe (see loader).
//
// Test files (_test.go) are not loaded: the invariants ecglint enforces
// are about simulation and protocol code; tests measure wall time and
// spin goroutines legitimately.
func Load(root string, patterns []string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "gc", nil),
		pkgs:    make(map[string]*Package),
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// loader is the run's types.Importer. It checks each module package
// once, on first use, so every importer sees the same *types.Package; the
// standard library comes from compiler export data, which needs the Go
// toolchain at GOROOT and a writable GOCACHE.
type loader struct {
	fset             *token.FileSet
	modRoot, modPath string
	std              types.Importer
	// pkgs maps an import path to its package; a nil entry marks one
	// being checked (or a directory without Go files).
	pkgs map[string]*Package
}

// Import serves module paths from the loader, the rest from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.modPath)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	pkg, err := l.loadDir(filepath.Join(l.modRoot, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: import cycle or no Go files at %s", path)
	}
	return pkg.Types, nil
}

// findModule walks up from the absolute dir to the nearest go.mod and
// returns the module directory and module path.
func findModule(dir string) (modRoot, modPath string, err error) {
	for {
		data, readErr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if readErr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expand resolves patterns to a sorted, de-duplicated list of package
// directories.
func expand(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(root, pat)
		info, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDir reports whether a recursive walk should descend into name.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// loadDir parses and type-checks the single package in dir once, or
// returns (nil, nil) when dir holds no non-test Go files.
func (l *loader) loadDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return nil, err
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	l.pkgs[path] = nil

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
