package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path it was loaded under
	Dir   string // directory its files came from
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// The source importer type-checks standard-library packages from
// $GOROOT/src, which is expensive, so a single instance (with its own
// private FileSet) is shared by every Loader. Only type objects cross
// the boundary, never positions, so the FileSet split is harmless.
var (
	stdOnce sync.Once
	stdImp  types.Importer
)

func stdImporter() types.Importer {
	stdOnce.Do(func() {
		//lint:ignore puredet written once under stdOnce.Do, before any Loader reads it; no simulation code reaches the lint loader
		stdImp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	})
	return stdImp
}

// Loader parses and type-checks packages of a single module using only
// the standard library: imports under the module path resolve to source
// directories beneath the module root, everything else goes through the
// shared source importer. Loads are memoized by import path.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	ctx     build.Context
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at moduleRoot with
// import path modulePath, selecting files under the given build tags.
func NewLoader(moduleRoot, modulePath string, tags []string) *Loader {
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.BuildTags = tags
	return &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		ctx:        ctx,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// Import implements types.Importer for the type checker: module-local
// paths load from source, the rest from the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return stdImporter().Import(path)
}

// Load loads the module package with the given import path from its
// canonical directory under the module root.
func (l *Loader) Load(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.LoadDir(path, filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
}

// LoadDir parses and type-checks the package in dir, registering it
// under the given import path. The path need not correspond to dir's
// real location — tests use this to load testdata packages as if they
// lived at module paths the analyzers care about.
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
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
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Loaded returns every package this loader has type-checked so far
// (targets and module-local dependencies alike), sorted by import path.
// This is the closed world the interprocedural layer analyzes.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// goFiles lists dir's buildable non-test Go files in sorted order,
// honoring build constraints under the loader's tags.
func (l *Loader) goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := l.ctx.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Packages expands command-line patterns (relative to the module root)
// into the import paths of directories that contain buildable Go files.
// A trailing "/..." walks recursively, skipping testdata, vendor and
// hidden directories.
func (l *Loader) Packages(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		names, err := l.goFiles(dir)
		if err != nil || len(names) == 0 {
			return nil // not a buildable package directory
		}
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" {
			pat = "."
		}
		base := filepath.Join(l.ModuleRoot, filepath.FromSlash(pat))
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: go.mod in %s has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		dir = parent
	}
}
