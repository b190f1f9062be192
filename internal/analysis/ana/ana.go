// Package ana is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver model, built on the standard
// library only (go/ast, go/types, and export data obtained from
// `go list -export`). THEDB's custom analyzer, syncerr, runs on top of
// it, both from cmd/thedb-lint and from the analysistest-style fixture
// suite (internal/analysis/anatest).
//
// The API deliberately mirrors go/analysis so the analyzer can be
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
	// (reserved for internal failures, not findings).
	Run func(*Pass) error
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
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer over each package and returns the
// surviving diagnostics sorted by position. Findings on lines covered
// by a //thedb:nolint comment (see suppressions) are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := suppressionSet{}
	var all []Diagnostic
	for _, pkg := range pkgs {
		sup.add(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
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

// add collects the //thedb:nolint comments of files. The form is
//
//	//thedb:nolint:name1,name2 — optional free-text reason
//	//thedb:nolint — optional reason (suppresses every analyzer)
//
// A comment suppresses matching findings on its own line (trailing
// comment) and on the immediately following line (comment on a line
// of its own above the flagged statement).
func (set suppressionSet) add(fset *token.FileSet, files []*ast.File) {
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
}

func (s suppressionSet) covers(d Diagnostic) bool {
	names := s[d.Pos.Filename][d.Pos.Line]
	return names["*"] || names[d.Analyzer]
}

// Callee resolves the *types.Func a call invokes statically: a plain
// package-level function (a generic one by its origin), a method call,
// or a qualified import. It
// returns nil for calls through function values, interface methods
// resolve to their abstract types.Func (which has no entry in the
// function index), and built-ins resolve to nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch inst := fun.(type) { // an explicitly instantiated generic
	case *ast.IndexExpr:
		fun = inst.X
	case *ast.IndexListExpr:
		fun = inst.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// SuppressionAudit is the accounting over //thedb:nolint comments in
// a loaded tree: how many suppressions name each analyzer ("*" for
// the suppress-everything form), and which comments carry no
// justification text. make lint prints the counts and fails on the
// unjustified ones — a suppression without a reason is indistinguishable
// from a silenced bug.
type SuppressionAudit struct {
	Counts      map[string]int
	Unjustified []Diagnostic
}

// AuditSuppressions scans every file of every package for
// //thedb:nolint comments and returns the audit.
func AuditSuppressions(pkgs []*Package) SuppressionAudit {
	audit := SuppressionAudit{Counts: map[string]int{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//thedb:nolint")
					if !ok {
						continue
					}
					names := []string{"*"}
					reason := text
					if rest, ok := strings.CutPrefix(text, ":"); ok {
						list, after, _ := strings.Cut(rest, " ")
						reason = after
						names = nil
						for _, n := range strings.Split(list, ",") {
							if n = strings.TrimSpace(n); n != "" {
								names = append(names, n)
							}
						}
					}
					for _, n := range names {
						audit.Counts[n]++
					}
					if strings.TrimSpace(reason) == "" {
						audit.Unjustified = append(audit.Unjustified, Diagnostic{
							Analyzer: "nolint-audit",
							Pos:      pkg.Fset.Position(c.Pos()),
							Message:  "//thedb:nolint without a justification: state why the finding is safe to suppress after the analyzer list",
						})
					}
				}
			}
		}
	}
	return audit
}
