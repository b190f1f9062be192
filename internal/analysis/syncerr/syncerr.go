// Package syncerr forbids discarding errors from durability-critical
// flush/sync/close operations. The WAL's group-commit contract
// (Appendix C; DESIGN.md §8) reports an epoch durable only once every
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
//     (DESIGN.md §12).
package syncerr

import (
	"go/ast"
	"go/types"

	"thedb/internal/analysis/ana"
)

// GuardMethods are the flagged method names.
var GuardMethods = map[string]bool{
	"Sync": true, "Flush": true, "Close": true, "SealAndSync": true,
}

// GuardPkgs declare durability-critical methods: discarding their
// errors is flagged from any calling package.
var GuardPkgs = map[string]bool{
	"thedb":              true,
	"thedb/internal/wal": true,
}

// StrictPkgs are packages where every discarded Sync/Flush/Close
// error is flagged regardless of the receiver's declaring package,
// and where discarded errors from the publish functions in
// StrictFuncs (os.Rename) are flagged as well.
var StrictPkgs = map[string]bool{
	"thedb/internal/wal":        true,
	"thedb/internal/checkpoint": true,
}

// StrictFuncs are package-level (receiverless) functions whose
// discarded error is flagged inside StrictPkgs, keyed by declaring
// package path then function name.
var StrictFuncs = map[string]map[string]bool{
	"os": {"Rename": true},
}

// NetPkgs are packages where discarding a Close/Flush error on a
// transport type (see netDeclaring) is flagged: the serving plane
// promises that a response counted as sent was actually flushed to
// the socket, and the only evidence of a broken promise is the error.
var NetPkgs = map[string]bool{
	"thedb/internal/server": true,
}

// netDeclaring are the packages whose Close/Flush methods carry that
// delivery evidence: net.Conn implementations, bufio writers, and TLS
// wrappers.
var netDeclaring = map[string]bool{
	"net": true, "bufio": true, "crypto/tls": true,
}

// Analyzer is the syncerr pass.
var Analyzer = &ana.Analyzer{
	Name: "syncerr",
	Doc:  "errors from Sync/Flush/Close/SealAndSync on WAL and recovery paths must not be discarded (durability contract, Appendix C)",
	Run:  run,
}

func run(pass *ana.Pass) error {
	strict := StrictPkgs[pass.Pkg.Path()]
	for _, file := range pass.Files {
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
			fn := ana.Callee(pass.Info, call)
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
				if strict && StrictFuncs[declaring][fn.Name()] {
					pass.Reportf(call.Pos(), "error from %s discarded: a dropped rename error means the image was never published while the round proceeds; check it (or annotate with //thedb:nolint:syncerr)", fn.Name())
				}
				return true
			}
			if !GuardMethods[fn.Name()] {
				return true
			}
			netGuard := NetPkgs[pass.Pkg.Path()] && netDeclaring[declaring]
			if !strict && !GuardPkgs[declaring] && !netGuard {
				return true
			}
			pass.Reportf(call.Pos(), "error from %s discarded: a dropped sync/close error silently forfeits the durability contract; check it (or annotate with //thedb:nolint:syncerr)", fn.Name())
			return true
		})
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
