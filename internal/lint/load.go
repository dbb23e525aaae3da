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
	"sort"
	"strings"
)

// Loader parses and type-checks packages from source, stdlib-only: module
// packages are resolved against the module root (with an optional testdata
// overlay so golden fixtures can shadow real packages), everything else is
// delegated to the go/importer "source" importer, which type-checks the
// standard library from GOROOT.
type Loader struct {
	Fset *token.FileSet
	// ModRoot is the module root directory; ModPath its module path.
	ModRoot string
	ModPath string
	// Dir is the directory relative package patterns resolve against: the
	// one NewLoader was given, made absolute.
	Dir string
	// GoVersion is the language version the type-checker enforces
	// ("go1.22"), read from the module's go directive. Without it go/types
	// accepts any language feature the toolchain knows — including ones
	// `go build` would reject under the module's declared version — and,
	// conversely, a future toolchain could start rejecting constructs the
	// directive permits. Pinning it keeps coordvet's accept set identical
	// to the compiler's, generics included.
	GoVersion string
	// OverlayRoot, when set, is a GOPATH-style source tree
	// (OverlayRoot/<import/path>/*.go) consulted before the module —
	// the golden-fixture convention.
	OverlayRoot string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
	order   []string // load completion order, for the annotation prescan
}

// NewLoader returns a loader rooted at the module containing dir (dir or a
// parent must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath, goVersion := "", ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	// The source importer type-checks the standard library from GOROOT
	// source; with cgo disabled it sticks to the pure-Go variants, which is
	// all type information needs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:      fset,
		ModRoot:   root,
		ModPath:   modPath,
		Dir:       abs,
		GoVersion: goVersion,
		std:       importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:      map[string]*Package{},
		loading:   map[string]bool{},
	}, nil
}

// resolveDir maps an import path to a source directory, or "" when the path
// is not ours (stdlib).
func (l *Loader) resolveDir(path string) string {
	if l.OverlayRoot != "" {
		dir := filepath.Join(l.OverlayRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	if path == l.ModPath {
		return l.ModRoot
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest))
	}
	return ""
}

// Load parses and type-checks the package at the given import path (module
// or overlay paths only; stdlib is loaded implicitly through imports).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	dir := l.resolveDir(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %q is not under module %s", path, l.ModPath)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{Importer: l, GoVersion: l.GoVersion}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Fset: l.Fset}
	l.pkgs[path] = p
	l.order = append(l.order, path)
	return p, nil
}

// Import implements types.Importer over the same resolution rules as Load.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.resolveDir(path) != "" {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom; dir is ignored (no vendoring).
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}

// Program bundles the scanned packages with the cross-package annotation
// index. Every package the loader has seen (scanned or dependency)
// contributes its `// guarded by` annotations.
func (l *Loader) Program(scanned []*Package) *Program {
	prog := &Program{Fset: l.Fset, Packages: scanned, Guarded: map[types.Object]GuardInfo{}}
	for _, path := range l.order {
		collectGuarded(l.pkgs[path], prog.Guarded)
	}
	return prog
}

// LoadPatterns expands `./...`-style patterns relative to Dir, as the go
// command does from its working directory, and loads every matching package,
// sorted by import path. A pattern that leaves the module is an error.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	seen := map[string]bool{}
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		rel, recursive := strings.CutSuffix(pat, "...")
		base := filepath.Clean(rel)
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.Dir, base)
		}
		if r, err := filepath.Rel(l.ModRoot, base); err != nil || r == ".." || strings.HasPrefix(r, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: pattern %q is outside the module at %s", pat, l.ModRoot)
		}
		if !recursive {
			if ok, err := hasGoSources(base); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("lint: no Go sources match %q", pat)
			}
			add(l.pathFor(base))
			continue
		}
		err := filepath.WalkDir(base, func(dir string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if name := d.Name(); dir != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if ok, err := hasGoSources(dir); err != nil {
				return err
			} else if ok {
				add(l.pathFor(dir))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// goSources lists the non-test Go files in dir, sorted for deterministic
// load order.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func hasGoSources(dir string) (bool, error) {
	names, err := goSources(dir)
	if err != nil {
		return false, err
	}
	return len(names) > 0, nil
}

// collectGuarded records every `// guarded by <mutex>` field annotation in
// the package. The annotation is a trailing comment on the field line (or a
// line of the field's doc comment) of the form:
//
//	mu    sync.Mutex
//	ring  []Event // guarded by mu
func collectGuarded(pkg *Package, out map[types.Object]GuardInfo) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					mutex := guardAnnotation(field)
					if mutex == "" {
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							out[obj] = GuardInfo{Mutex: mutex, Struct: ts.Name.Name, PkgPath: pkg.Path}
						}
					}
				}
			}
		}
	}
}

// guardAnnotation extracts the mutex name from a field's `guarded by X`
// comment, or "".
func guardAnnotation(field *ast.Field) string {
	scan := func(cg *ast.CommentGroup) string {
		if cg == nil {
			return ""
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			if _, rest, ok := strings.Cut(text, "guarded by "); ok {
				name := strings.FieldsFunc(rest, func(r rune) bool {
					return r == ' ' || r == '.' || r == ',' || r == ';' || r == '*' || r == '\t'
				})
				if len(name) > 0 {
					return name[0]
				}
			}
		}
		return ""
	}
	if m := scan(field.Comment); m != "" {
		return m
	}
	return scan(field.Doc)
}
