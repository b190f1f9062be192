// Package noalloc statically verifies the zero-allocation contract of
// annotated hot paths. Functions whose doc comment carries a
// //thedb:noalloc line — the flight-recorder Record path, the wire
// encoder, the storage read/validate protocol words — must not reach
// a heap-escaping construct in their own body or in any module callee
// reachable from it. The runtime testing.AllocsPerRun pins keep
// guarding the same paths end to end; this check is the static,
// per-construct complement that names the exact allocating line
// instead of a nonzero total.
//
// Flagged constructs: make/new, slice and map literals, &T{...}
// (escaping composite), append into anything but a caller-owned
// parameter buffer, string concatenation, string<->[]byte/[]rune
// conversions, function literals (closure allocation), go statements,
// boxing a non-pointer value into an interface parameter, calls into
// allocating std packages (fmt, strings, errors, ...), and calls the
// analyzer cannot resolve (function values, interface methods) —
// unverifiable is treated as allocating. Module-internal calls are
// followed transitively; a cold path inside a hot function (an error
// return that allocates once per connection teardown, say) is
// sanctioned with a per-line justified //thedb:nolint:noalloc, which
// the suppression audit counts.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"thedb/internal/analysis/ana"
)

// Marker is the annotation line that opts a function into the check.
const Marker = "//thedb:noalloc"

// Analyzer is the noalloc module pass.
var Analyzer = &ana.Analyzer{
	Name:      "noalloc",
	Doc:       "//thedb:noalloc functions must not reach heap-allocating constructs, transitively through module callees",
	RunModule: runModule,
}

// denyPkgs are std packages whose entry points allocate (or box their
// arguments) as a matter of course.
var denyPkgs = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "sort": true,
	"errors": true, "log": true, "reflect": true, "regexp": true,
	"bytes": true, "os": true, "io": true, "bufio": true,
	"context": true, "encoding/json": true, "math/rand": true,
}

// allowPkgs are std packages whose calls are allocation-free on the
// paths this module uses.
var allowPkgs = map[string]bool{
	"sync/atomic": true, "sync": true, "math": true, "math/bits": true,
	"encoding/binary": true, "unicode/utf8": true, "runtime": true,
	"time": true, "unsafe": true,
}

// allowFuncs are individual functions from otherwise-denied packages
// that are allocation-free: io.ReadFull fills a caller-supplied
// buffer without allocating, while the rest of io (ReadAll, ...) does
// not deserve package-wide trust.
var allowFuncs = map[string]bool{
	"io.ReadFull": true,
	// A bufio.Reader's Peek, Discard, Buffered and Size work inside the
	// buffer it was made with.
	"bufio.Peek": true, "bufio.Discard": true, "bufio.Buffered": true, "bufio.Size": true,
	// slices.SortFunc sorts in place (pdqsort, no scratch).
	"slices.SortFunc": true,
}

// site is one allocating construct found in a function body.
type site struct {
	pos  token.Pos
	what string
}

// facts is one function's local result: its own allocation sites and
// the module callees the walk must follow.
type facts struct {
	sites []site
	calls []*types.Func
}

func runModule(pass *ana.ModulePass) error {
	memo := map[*types.Func]*facts{}
	factsOf := func(fn *types.Func) *facts {
		if f, ok := memo[fn]; ok {
			return f
		}
		f := &facts{}
		memo[fn] = f
		if info := pass.Funcs[fn]; info != nil && info.Decl.Body != nil {
			collect(info.Pkg, pass.Funcs, info.Decl, f)
		}
		return f
	}

	reported := map[token.Pos]bool{}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !isAnnotated(fd) {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				root := pkg.Types.Name() + "." + fn.Name()
				visited := map[*types.Func]bool{fn: true}
				stack := []*types.Func{fn}
				for len(stack) > 0 {
					cur := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					f := factsOf(cur)
					for _, s := range f.sites {
						if reported[s.pos] {
							continue
						}
						reported[s.pos] = true
						pass.Reportf(s.pos, "%s in a //thedb:noalloc path (root %s)", s.what, root)
					}
					for _, callee := range f.calls {
						if !visited[callee] {
							visited[callee] = true
							stack = append(stack, callee)
						}
					}
				}
			}
		}
	}
	return nil
}

// isAnnotated reports whether the declaration's doc comment carries
// the //thedb:noalloc marker.
func isAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Marker || strings.HasPrefix(c.Text, Marker+" ") {
			return true
		}
	}
	return false
}

// collect walks one function body recording allocation sites and
// module callees. Function literals are flagged as closure
// allocations and not entered (their bodies run through a dynamic
// call the walk cannot order anyway).
func collect(pkg *ana.Package, funcs map[*types.Func]*ana.FuncInfo, decl *ast.FuncDecl, f *facts) {
	params := paramVars(pkg, decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			f.add(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			f.add(n.Pos(), "go statement allocates a goroutine stack")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					f.add(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					f.add(n.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					f.add(n.Pos(), "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pkg.Info.Types[n]; ok && isString(tv.Type) {
					f.add(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			f.call(pkg, funcs, params, n)
		}
		return true
	})
}

func (f *facts) add(pos token.Pos, what string) {
	f.sites = append(f.sites, site{pos: pos, what: what})
}

// call classifies one call expression: builtin, conversion, module
// callee, external callee, or dynamic.
func (f *facts) call(pkg *ana.Package, funcs map[*types.Func]*ana.FuncInfo, params map[*types.Var]bool, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins: the universe's by bare name, unsafe's (Slice, String,
	// SliceData, StringData, Add, ...) through a selector. The latter
	// compile to pointer arithmetic and match no case below.
	id, _ := fun.(*ast.Ident)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if id != nil {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				f.add(call.Pos(), "make allocates")
			case "new":
				f.add(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !isParamBuffer(pkg, params, call.Args[0]) {
					f.add(call.Pos(), "append may grow a non-caller-owned buffer")
				}
			case "print", "println":
				f.add(call.Pos(), b.Name()+" boxes its arguments")
			}
			return
		}
	}

	// Conversions.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			src, _ := pkg.Info.Types[call.Args[0]]
			if conversionAllocates(tv.Type, src.Type) {
				f.add(call.Pos(), "string<->byte-slice conversion copies and allocates")
			}
		}
		return
	}

	fn := ana.Callee(pkg.Info, call)
	if fn == nil {
		f.add(call.Pos(), "dynamic call through a function value cannot be verified allocation-free")
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil {
			if _, ok := recv.Type().Underlying().(*types.Interface); ok {
				f.add(call.Pos(), "interface method call cannot be verified allocation-free")
				return
			}
		}
		// Box against the instantiated signature: a type parameter is
		// stenciled, not boxed, unless instantiated with an interface.
		if inst, ok := pkg.Info.Types[call.Fun].Type.(*types.Signature); ok {
			sig = inst
		}
		f.boxedArgs(pkg, sig, call)
	}
	if funcs[fn] != nil {
		f.calls = append(f.calls, fn)
		return
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case allowPkgs[pkgPath] || allowFuncs[pkgPath+"."+fn.Name()]:
	case denyPkgs[pkgPath]:
		f.add(call.Pos(), "call into "+pkgPath+" allocates")
	default:
		f.add(call.Pos(), "call into "+pkgPath+" is not verified allocation-free")
	}
}

// boxedArgs flags arguments boxed into interface parameters: storing
// a non-pointer-shaped concrete value in an interface allocates.
func (f *facts) boxedArgs(pkg *ana.Package, sig *types.Signature, call *ast.CallExpr) {
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (i == sig.Params().Len()-1 && !sig.Variadic()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && sig.Params().Len() > 0:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no boxing here
			}
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if isPointerShaped(at.Type) {
			continue
		}
		f.add(arg.Pos(), "boxing a non-pointer value into an interface parameter allocates")
	}
}

// isParamBuffer reports whether e names a parameter of the enclosing
// function: appending into a caller-owned buffer is the sanctioned
// grow-in-place idiom (wire.AppendFrame's dst).
func isParamBuffer(pkg *ana.Package, params map[*types.Var]bool, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := pkg.Info.Uses[id].(*types.Var)
	return v != nil && params[v]
}

// paramVars collects the declared parameter objects of decl (receiver
// included): the caller owns those buffers, so growing them in place
// is the one sanctioned append target.
func paramVars(pkg *ana.Package, decl *ast.FuncDecl) map[*types.Var]bool {
	params := map[*types.Var]bool{}
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					params[v] = true
				}
			}
		}
	}
	addField(decl.Recv)
	addField(decl.Type.Params)
	return params
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// conversionAllocates reports string<->[]byte/[]rune conversions.
func conversionAllocates(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	return (isString(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isString(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports types whose interface representation does
// not require a heap copy: pointers, channels, maps, funcs, and
// unsafe pointers store the word directly.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Interface:
		return true // already an interface: assignment copies the word pair
	}
	return false
}
