package ana

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file extends the per-package driver model with module-wide
// passes and the interprocedural machinery they need: a function
// index (types.Func -> declaration) and static callee resolution. The
// noalloc analyzer is built on it: an allocation three calls deep, in
// another package, must surface at the annotated hot path.

// ModulePass carries every loaded package to a module-scoped analyzer
// (Analyzer.RunModule). All packages must share one token.FileSet,
// which both Load and the anatest fixture loader guarantee (they
// type-check everything through a single Checker).
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	// Funcs indexes every function and method declared in Pkgs by its
	// types.Func object, so analyzers can walk into callee bodies
	// across package boundaries.
	Funcs map[*types.Func]*FuncInfo

	diags *[]Diagnostic
}

// Reportf records a module-pass finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.diags, p.Analyzer.Name, p.Fset, pos, format, args...)
}

// FuncInfo locates one declared function's source.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// IndexFuncs builds the declaration index over the loaded packages.
func IndexFuncs(pkgs []*Package) map[*types.Func]*FuncInfo {
	idx := map[*types.Func]*FuncInfo{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx[fn] = &FuncInfo{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return idx
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
