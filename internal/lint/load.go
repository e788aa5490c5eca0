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
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the loaded module.
type Package struct {
	// RelDir is the module-relative directory ("" for the module root).
	RelDir string
	// Path is the import path, Name the package name.
	Path string
	Name string

	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	imports []string // module-internal import paths
}

// Module is a whole loaded module: every non-test package, parsed and
// type-checked in dependency order with a single shared FileSet.
type Module struct {
	Root string
	Path string
	Fset *token.FileSet
	// Pkgs is in topological (dependencies-first) order.
	Pkgs   []*Package
	byPath map[string]*Package
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

var moduleDirective = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule discovers, parses and type-checks every non-test package
// under root. Standard-library imports are resolved with the stdlib gc
// importer (export data), falling back to type-checking stdlib sources;
// module-internal imports are resolved against the packages being loaded,
// in topological order. No external tooling is involved.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	m := moduleDirective.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	mod := &Module{
		Root:   root,
		Path:   string(m[1]),
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	if err := mod.discoverAndParse(); err != nil {
		return nil, err
	}
	order, err := mod.topoOrder()
	if err != nil {
		return nil, err
	}
	if err := mod.typeCheck(order); err != nil {
		return nil, err
	}
	mod.Pkgs = order
	return mod, nil
}

// discoverAndParse finds every directory holding non-test Go files and
// parses them.
func (m *Module) discoverAndParse() error {
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		// A nested module (its own go.mod) is not part of this one.
		if path != m.Root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		return m.parseDir(path)
	})
	if err != nil {
		return err
	}
	if len(m.byPath) == 0 {
		return fmt.Errorf("lint: no Go packages under %s", m.Root)
	}
	return nil
}

// parseDir parses the non-test Go files of one directory, if any.
func (m *Module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return err
	}
	if rel == "." {
		rel = ""
	}
	pkg := &Package{RelDir: filepath.ToSlash(rel)}
	pkg.Path = m.Path
	if pkg.RelDir != "" {
		pkg.Path = m.Path + "/" + pkg.RelDir
	}
	internal := make(map[string]bool)
	for _, n := range names {
		file := filepath.Join(dir, n)
		f, err := parser.ParseFile(m.Fset, file, nil, 0)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if pkg.Name != f.Name.Name {
			return fmt.Errorf("lint: %s: package %s and %s in one directory", dir, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ip == m.Path || strings.HasPrefix(ip, m.Path+"/") {
				internal[ip] = true
			}
		}
	}
	for ip := range internal {
		pkg.imports = append(pkg.imports, ip)
	}
	sort.Strings(pkg.imports)
	m.byPath[pkg.Path] = pkg
	return nil
}

// topoOrder returns the packages dependencies-first.
func (m *Module) topoOrder() ([]*Package, error) {
	var order []*Package
	state := make(map[string]int) // 0 unvisited, 1 in progress, 2 done
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
		state[path] = 1
		pkg := m.byPath[path]
		for _, dep := range pkg.imports {
			if m.byPath[dep] == nil {
				return fmt.Errorf("lint: %s imports %s, which has no Go files", path, dep)
			}
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, pkg)
		return nil
	}
	var paths []string
	for p := range m.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves imports during type checking: module-internal
// paths against the already-checked packages, everything else through the
// stdlib gc importer with a source-importer fallback.
type moduleImporter struct {
	mod *Module
	gc  types.Importer
	src types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.mod.byPath[path]; ok {
		if pkg.Pkg == nil {
			return nil, fmt.Errorf("lint: internal package %s not yet type-checked (load-order bug)", path)
		}
		return pkg.Pkg, nil
	}
	pkg, err := im.gc.Import(path)
	if err == nil {
		return pkg, nil
	}
	if im.src == nil {
		im.src = importer.ForCompiler(im.mod.Fset, "source", nil)
	}
	pkg, srcErr := im.src.Import(path)
	if srcErr != nil {
		return nil, fmt.Errorf("lint: import %q: %v (source fallback: %v)", path, err, srcErr)
	}
	return pkg, nil
}

// typeCheck runs go/types over each package in order.
func (m *Module) typeCheck(order []*Package) error {
	imp := &moduleImporter{mod: m, gc: importer.ForCompiler(m.Fset, "gc", nil)}
	for _, pkg := range order {
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
		if len(typeErrs) > 0 {
			const max = 5
			msgs := make([]string, 0, max+1)
			for i, e := range typeErrs {
				if i == max {
					msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-max))
					break
				}
				msgs = append(msgs, e.Error())
			}
			return fmt.Errorf("lint: type errors in %s:\n  %s", pkg.Path, strings.Join(msgs, "\n  "))
		}
		if err != nil {
			return fmt.Errorf("lint: %s: %w", pkg.Path, err)
		}
		pkg.Pkg = tpkg
		pkg.Info = info
	}
	return nil
}

// Match reports whether the package is selected by the Go-style pattern
// list: "./..." selects everything, "./dir/..." a subtree, "./dir" (or
// "dir") exactly one directory, "." the module root package.
func (pkg *Package) Match(patterns []string) bool {
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." {
			return true
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if pkg.RelDir == rest || strings.HasPrefix(pkg.RelDir, rest+"/") {
				return true
			}
			continue
		}
		if pat == "." && pkg.RelDir == "" {
			return true
		}
		if pkg.RelDir == pat {
			return true
		}
	}
	return false
}
