// Package syncerr forbids discarding errors from durability-critical
// flush/sync/close operations. The WAL's group-commit contract
// (Appendix C; DESIGN.md §5.1) reports an epoch durable only once every
// stream has been sealed, flushed, and fsynced — a dropped error from
// any of those silently forfeits the guarantee while the engine keeps
// acknowledging commits.
//
// A call to a method named Sync, Flush, Close, or SealAndSync that
// returns exactly one error is flagged when its result is discarded
// (expression statement, defer, go, or assignment to blank) and
// either:
//
//   - the method is declared in a durability-owning package
//     (thedb root or thedb/internal/wal), wherever the call appears —
//     this catches `defer db.Close()` in examples and cmd binaries; or
//   - the call appears inside thedb/internal/wal or
//     thedb/internal/checkpoint itself, whatever the receiver
//     (os.File.Sync, bufio.Writer.Flush, ...) — and in those strict
//     packages a discarded os.Rename error is flagged too, because
//     rename is the crash-atomic publish point: a dropped error there
//     means no checkpoint was published while the round goes on to
//     truncate the WAL generations the image was supposed to cover; or
//   - the call appears inside the network serving plane
//     (thedb/internal/server) and the receiver's method is declared by
//     a transport package (net, bufio, crypto/tls). A dropped
//     net.Conn.Close or bufio.Writer.Flush error there can silently
//     discard response bytes the server already counted as delivered
//     (DESIGN.md §6.2).
//
// A finding is suppressed by a comment on its line or on the line
// above that reads exactly
//
//	//thedb:nolint:syncerr <reason>
//
// Any other //thedb:nolint comment — no reason, another rule's name,
// a list, the bare form — is itself a finding and suppresses nothing:
// an unexplained suppression is indistinguishable from a silenced bug.
package syncerr

import (
	"bytes"
	"cmp"
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
	"slices"
	"strings"
)

// guardMethods are the flagged method names.
var guardMethods = map[string]bool{
	"Sync": true, "Flush": true, "Close": true, "SealAndSync": true,
}

// guardPkgs declare durability-critical methods: discarding their
// errors is flagged from any calling package.
var guardPkgs = map[string]bool{
	"thedb":              true,
	"thedb/internal/wal": true,
}

// strictPkgs are packages where every discarded Sync/Flush/Close
// error is flagged regardless of the receiver's declaring package,
// and where discarded errors from the publish functions in
// strictFuncs (os.Rename) are flagged as well.
var strictPkgs = map[string]bool{
	"thedb/internal/wal":        true,
	"thedb/internal/checkpoint": true,
}

// strictFuncs are package-level (receiverless) functions whose
// discarded error is flagged inside strictPkgs, keyed by declaring
// package path then function name.
var strictFuncs = map[string]map[string]bool{
	"os": {"Rename": true},
}

// netPkgs are packages where discarding a Close/Flush error on a
// transport type (see netDeclaring) is flagged: the serving plane
// promises that a response counted as sent was actually flushed to
// the socket, and the only evidence of a broken promise is the error.
var netPkgs = map[string]bool{
	"thedb/internal/server": true,
}

// netDeclaring are the packages whose Close/Flush methods carry that
// delivery evidence: net.Conn implementations, bufio writers, and TLS
// wrappers.
var netDeclaring = map[string]bool{
	"net": true, "bufio": true, "crypto/tls": true,
}

// suppression is the one comment form that silences a finding.
const suppression = "//thedb:nolint:syncerr "

// Finding is one report: a discarded error or a malformed suppression.
type Finding struct {
	Pos     token.Position
	Message string
}

func (f Finding) String() string { return fmt.Sprintf("%s: %s (syncerr)", f.Pos, f.Message) }

// Check lists patterns (e.g. "./...") in dir with one
// `go list -export -deps -json` run, type-checks every matched
// package's non-test files against the export data the build cache
// holds for its imports, and returns the findings sorted by position
// with the number of well-formed suppressions in force.
func Check(dir string, patterns ...string) ([]Finding, int, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})}
	var findings []Finding
	tally := 0
	// -deps lists every package after its dependencies, so each
	// import's export data is known before a package is checked.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			DepOnly                 bool
		}
		if err := dec.Decode(&p); err != nil {
			return nil, 0, fmt.Errorf("go list: decoding output: %w", err)
		}
		exports[p.ImportPath] = p.Export
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, 0, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			return nil, 0, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		covered, n, bad := suppressions(fset, files)
		tally += n
		findings = append(findings, bad...)
		for _, f := range run(p.ImportPath, fset, files, info) {
			if !covered[token.Position{Filename: f.Pos.Filename, Line: f.Pos.Line}] {
				findings = append(findings, f)
			}
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Message, b.Message))
	})
	return findings, tally, nil
}

// suppressions scans files' //thedb:nolint comments once: the lines
// the well-formed ones cover (their own and the next), how many those
// are, and a finding for each of the others.
func suppressions(fset *token.FileSet, files []*ast.File) (map[token.Position]bool, int, []Finding) {
	covered := map[token.Position]bool{}
	n := 0
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//thedb:nolint") {
					continue
				}
				pos := fset.Position(c.Pos())
				if reason, ok := strings.CutPrefix(c.Text, suppression); !ok || strings.TrimSpace(reason) == "" {
					bad = append(bad, Finding{pos, "suppression must read //thedb:nolint:syncerr <reason>: state why the finding is safe to suppress"})
					continue
				}
				n++
				covered[token.Position{Filename: pos.Filename, Line: pos.Line}] = true
				covered[token.Position{Filename: pos.Filename, Line: pos.Line + 1}] = true
			}
		}
	}
	return covered, n, bad
}

// run applies the rule to one package's files.
func run(path string, fset *token.FileSet, files []*ast.File, info *types.Info) []Finding {
	var out []Finding
	strict := strictPkgs[path]
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && allBlank(n.Lhs) {
					call, _ = n.Rhs[0].(*ast.CallExpr)
				}
			}
			if call == nil {
				return true
			}
			fn := callee(info, call)
			if fn == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Results().Len() != 1 || !isErrorType(sig.Results().At(0).Type()) {
				return true
			}
			declaring := ""
			if fn.Pkg() != nil {
				declaring = fn.Pkg().Path()
			}
			if sig.Recv() == nil {
				// Receiverless publish functions (os.Rename) only
				// matter inside strict packages.
				if strict && strictFuncs[declaring][fn.Name()] {
					out = append(out, Finding{fset.Position(call.Pos()), fmt.Sprintf("error from %s discarded: a dropped rename error means the image was never published while the round proceeds; check it (or annotate with //thedb:nolint:syncerr)", fn.Name())})
				}
				return true
			}
			if !guardMethods[fn.Name()] {
				return true
			}
			netGuard := netPkgs[path] && netDeclaring[declaring]
			if !strict && !guardPkgs[declaring] && !netGuard {
				return true
			}
			out = append(out, Finding{fset.Position(call.Pos()), fmt.Sprintf("error from %s discarded: a dropped sync/close error silently forfeits the durability contract; check it (or annotate with //thedb:nolint:syncerr)", fn.Name())})
			return true
		})
	}
	return out
}

// callee resolves the *types.Func a call invokes statically: a plain
// package-level function (a generic one by its origin), a method call,
// or a qualified import. It returns nil for calls through function
// values and for built-ins; an interface method resolves to its
// abstract types.Func.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
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

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
