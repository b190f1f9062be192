// Package ana is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver model, built on the standard
// library only (go/ast, go/types, and export data obtained from
// `go list -export`). THEDB's custom analyzers (see
// internal/analysis/...) run on top of it, both from the
// cmd/thedb-lint multichecker and from analysistest-style fixture
// suites (internal/analysis/anatest).
//
// The API deliberately mirrors go/analysis so the analyzers can be
// ported to the real framework wholesale if the dependency ever
// becomes available.
package ana

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //thedb:nolint suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and
	// the paper section it guards.
	Doc string
	// Run executes the check over one package and reports findings
	// through the pass. A non-nil error aborts the whole lint run
	// (reserved for internal failures, not findings). Nil for
	// module-scoped analyzers.
	Run func(*Pass) error
	// RunModule executes the check once over the whole loaded module
	// (interprocedural analyzers: noalloc).
	// Either Run or RunModule must be set; both is allowed.
	RunModule func(*ModulePass) error
}

// Pass carries one analyzed package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.diags, p.Analyzer.Name, p.Fset, pos, format, args...)
}

func reportf(diags *[]Diagnostic, analyzer string, fset *token.FileSet, pos token.Pos, format string, args ...any) {
	*diags = append(*diags, Diagnostic{
		Analyzer: analyzer,
		Pos:      fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer — per-package passes over each package,
// module passes once over the whole set — and returns the surviving
// diagnostics sorted by position. Findings on lines covered by a
// //thedb:nolint comment (see suppressions) are dropped; the
// suppression set is merged across all packages so a module pass's
// finding can be silenced where it points.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := suppressionSet{}
	for _, pkg := range pkgs {
		sup.merge(suppressions(pkg.Fset, pkg.Files))
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &all,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	var funcs map[*types.Func]*FuncInfo
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if funcs == nil {
			funcs = IndexFuncs(pkgs)
		}
		mp := &ModulePass{Analyzer: a, Pkgs: pkgs, Funcs: funcs, diags: &all}
		if len(pkgs) > 0 {
			mp.Fset = pkgs[0].Fset
		}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("analyzer %s (module pass): %w", a.Name, err)
		}
	}
	var diags []Diagnostic
	for _, d := range all {
		if !sup.covers(d) {
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppressionSet maps file -> line -> analyzer names suppressed on
// that line ("*" suppresses all).
type suppressionSet map[string]map[int]map[string]bool

// merge folds other into s.
func (s suppressionSet) merge(other suppressionSet) {
	for file, lines := range other {
		if s[file] == nil {
			s[file] = lines
			continue
		}
		for line, names := range lines {
			if s[file][line] == nil {
				s[file][line] = names
				continue
			}
			for n := range names {
				s[file][line][n] = true
			}
		}
	}
}

// suppressions collects //thedb:nolint comments. The form is
//
//	//thedb:nolint:name1,name2 — optional free-text reason
//	//thedb:nolint — optional reason (suppresses every analyzer)
//
// A comment suppresses matching findings on its own line (trailing
// comment) and on the immediately following line (comment on a line
// of its own above the flagged statement).
func suppressions(fset *token.FileSet, files []*ast.File) suppressionSet {
	set := suppressionSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//thedb:nolint")
				if !ok {
					continue
				}
				names := map[string]bool{"*": true}
				if rest, ok := strings.CutPrefix(text, ":"); ok {
					names = map[string]bool{}
					// The analyzer list ends at the first space.
					list, _, _ := strings.Cut(rest, " ")
					for _, n := range strings.Split(list, ",") {
						if n = strings.TrimSpace(n); n != "" {
							names[n] = true
						}
					}
				}
				pos := fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if lines[line] == nil {
						lines[line] = map[string]bool{}
					}
					for n := range names {
						lines[line][n] = true
					}
				}
			}
		}
	}
	return set
}

func (s suppressionSet) covers(d Diagnostic) bool {
	names := s[d.Pos.Filename][d.Pos.Line]
	return names["*"] || names[d.Analyzer]
}
