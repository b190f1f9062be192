package ana

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package stream. -export makes the toolchain
// populate .Export with the build-cache export-data file for every
// package, which is how the type checker resolves imports without
// depending on golang.org/x/tools.
func goList(dir string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists patterns (relative to dir, e.g. "./..."), parses every
// matched package's non-test Go files, and type-checks them against
// export data. Dependencies (DepOnly) supply export data but are not
// themselves analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	chk := NewChecker()
	for _, p := range listed {
		if p.Export != "" {
			chk.AddExport(p.ImportPath, p.Export)
		}
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := chk.CheckFiles(p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Checker type-checks source packages against export data, consulting
// previously checked source packages first so fixture trees can shadow
// real import paths (anatest relies on this).
type Checker struct {
	Fset    *token.FileSet
	exports map[string]string         // import path -> export data file
	source  map[string]*types.Package // import path -> already-checked source package
	gc      types.Importer
}

// NewChecker builds a checker with no export data yet (see AddExport
// and ResolveExports).
func NewChecker() *Checker {
	c := &Checker{
		Fset:    token.NewFileSet(),
		exports: map[string]string{},
		source:  map[string]*types.Package{},
	}
	c.gc = importer.ForCompiler(c.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := c.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return c
}

// AddExport registers an export-data file for an import path.
func (c *Checker) AddExport(path, file string) { c.exports[path] = file }

// Import implements types.Importer: source packages shadow export data.
func (c *Checker) Import(path string) (*types.Package, error) {
	if p, ok := c.source[path]; ok {
		return p, nil
	}
	return c.gc.Import(path)
}

// CheckFiles parses and type-checks the given files as the package at
// importPath. The result is also registered so later CheckFiles calls
// can import it by path.
func (c *Checker) CheckFiles(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(c.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	return c.Check(importPath, dir, files)
}

// Check type-checks already-parsed files as the package at importPath.
func (c *Checker) Check(importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: c,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, c.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	c.source[importPath] = tpkg
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	return &Package{
		Path:  importPath,
		Name:  name,
		Dir:   dir,
		Fset:  c.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// ResolveExports runs `go list -export` for the given import paths
// (plus their dependencies) and registers their export data with the
// checker. Paths already satisfied by source packages are skipped, as
// is "unsafe" (the importer special-cases it). anatest uses this to
// let fixtures import both the standard library and real thedb
// packages.
func (c *Checker) ResolveExports(moduleDir string, paths []string) error {
	var need []string
	for _, p := range paths {
		if p == "unsafe" || c.exports[p] != "" {
			continue
		}
		if _, ok := c.source[p]; ok {
			continue
		}
		need = append(need, p)
	}
	if len(need) == 0 {
		return nil
	}
	listed, err := goList(moduleDir, need...)
	if err != nil {
		return err
	}
	for _, p := range listed {
		if p.Export != "" {
			c.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}
