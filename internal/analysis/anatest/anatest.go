// Package anatest is an analysistest-style fixture runner for the ana
// framework: it loads a tree of fixture packages from an analyzer's
// testdata directory, type-checks them (fixture packages may shadow
// real import paths, and may import real module or standard-library
// packages via export data), runs the analyzer, and compares the
// diagnostics against `// want "regexp"` comments in the fixtures.
package anatest

import (
	"fmt"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"thedb/internal/analysis/ana"
)

// Run loads testdata/src/<path>/... fixture packages beneath
// testdataDir, runs the analyzer over every one, and reports
// mismatches between actual diagnostics and // want comments via t.
func Run(t *testing.T, testdataDir string, a *ana.Analyzer) {
	t.Helper()
	pkgs, err := load(testdataDir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := ana.Run(pkgs, []*ana.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	check(t, pkgs, diags)
}

// load discovers, parses, and type-checks every fixture package under
// dir/src, in dependency order.
func load(dir string) ([]*ana.Package, error) {
	srcRoot := filepath.Join(dir, "src")
	type fixture struct {
		path  string
		dir   string
		files []string
	}
	var fixtures []*fixture
	err := filepath.Walk(srcRoot, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		d := filepath.Dir(p)
		rel, err := filepath.Rel(srcRoot, d)
		if err != nil {
			return err
		}
		imp := filepath.ToSlash(rel)
		for _, f := range fixtures {
			if f.path == imp {
				f.files = append(f.files, p)
				return nil
			}
		}
		fixtures = append(fixtures, &fixture{path: imp, dir: d, files: []string{p}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(fixtures) == 0 {
		return nil, fmt.Errorf("no fixture packages under %s", srcRoot)
	}
	for _, f := range fixtures {
		sort.Strings(f.files)
	}

	chk := ana.NewChecker()

	// Gather every import so external ones can be resolved to export
	// data in a single `go list` run.
	isFixture := map[string]bool{}
	for _, f := range fixtures {
		isFixture[f.path] = true
	}
	imports := map[string]bool{}
	deps := map[string][]string{} // fixture path -> fixture deps
	for _, f := range fixtures {
		for _, file := range f.files {
			pf, err := parser.ParseFile(chk.Fset, file, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, spec := range pf.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if isFixture[p] {
					deps[f.path] = append(deps[f.path], p)
				} else {
					imports[p] = true
				}
			}
		}
	}
	var external []string
	for p := range imports {
		external = append(external, p)
	}
	sort.Strings(external)
	moduleDir, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	if err := chk.ResolveExports(moduleDir, external); err != nil {
		return nil, err
	}

	// Check fixtures in dependency order (fixed-point over the small
	// fixture set; cycles are a fixture bug).
	var out []*ana.Package
	done := map[string]bool{}
	for len(out) < len(fixtures) {
		progressed := false
		for _, f := range fixtures {
			if done[f.path] {
				continue
			}
			ready := true
			for _, d := range deps[f.path] {
				if !done[d] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			pkg, err := chk.CheckFiles(f.path, f.dir, f.files)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
			done[f.path] = true
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("import cycle among fixture packages under %s", srcRoot)
		}
	}
	return out, nil
}

// findModuleRoot walks up from dir to the enclosing go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// wantRE matches one quoted expectation in a // want comment.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// check compares diagnostics against // want comments.
func check(t *testing.T, pkgs []*ana.Package, diags []ana.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*expectation{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range wantRE.FindAllString(rest, -1) {
						var pat string
						if q[0] == '`' {
							pat = q[1 : len(q)-1]
						} else {
							var err error
							pat, err = strconv.Unquote(q)
							if err != nil {
								t.Errorf("%s: bad want pattern %s: %v", pos, q, err)
								continue
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
							continue
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &expectation{re: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
}
