// Package nondet forbids sources of nondeterminism on the
// deterministic replay path: command-log replay (ReplayCommands,
// Appendix C), which reconstructs the database only if stored
// procedures re-run deterministically in commit order.
//
// Flagged inside a function named ReplayCommands:
//
//   - calls to time.Now / time.Since (wall-clock dependence)
//   - any use of math/rand or math/rand/v2 (unseeded or
//     process-global randomness)
//   - range over a map (iteration order is randomized per run)
//
// Wall-clock reads that feed only metrics (not transaction logic) are
// legitimate; annotate them with //thedb:nolint:nondet and a reason.
//
// The protocol engine (internal/core) gets a narrower rule: wall
// clocks and map iteration are fine there, but math/rand is still
// forbidden — the seeded fault.Schedule chaos injector is the only
// sanctioned source of randomness on protocol paths, so chaos runs
// replay exactly from a seed (DESIGN.md §10). Printing to the
// process-global streams (fmt.Print*, log.Print* and friends) is
// forbidden there too: protocol observability goes through the
// metrics counters and the flight recorder (internal/obs), never
// stdout — a stray debug print on a hot path skews benchmarks and
// interleaves garbage into harness output.
package nondet

import (
	"go/ast"
	"go/types"

	"thedb/internal/analysis/ana"
)

// CorePath is the protocol engine package, where math/rand is
// forbidden in favor of the seeded fault.Schedule injector.
const CorePath = "thedb/internal/core"

// ReplayFunc is the command-replay entry point, checked in any package.
const ReplayFunc = "ReplayCommands"

// Analyzer is the nondet pass.
var Analyzer = &ana.Analyzer{
	Name: "nondet",
	Doc:  "time.Now, math/rand, and map iteration are forbidden in command-log replay (ReplayCommands); internal/core forbids math/rand (fault.Schedule is the sanctioned randomness) and fmt/log printing to process-global streams (metrics and the flight recorder are the sanctioned observability)",
	Run:  run,
}

func run(pass *ana.Pass) error {
	if pass.Pkg.Path() == CorePath {
		for _, file := range pass.Files {
			checkRandOnly(pass, file)
		}
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == ReplayFunc && fd.Body != nil {
				checkRegion(pass, fd.Body)
			}
		}
	}
	return nil
}

var forbiddenTimeFuncs = map[string]bool{"Now": true, "Since": true}

// forbiddenPrintFuncs are the fmt and log functions that write to the
// process-global streams. Writer-directed fmt.Fprint* and
// fmt.Sprintf/Errorf stay legal — the rule targets stray stdout
// debugging, not formatting.
var forbiddenPrintFuncs = map[string]map[string]bool{
	"fmt": {"Print": true, "Printf": true, "Println": true},
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
}

// checkRandOnly enforces the internal/core rules: math/rand (and v2)
// is forbidden on protocol paths, where the seeded fault.Schedule
// injector is the only sanctioned randomness, and printing to the
// process-global streams is forbidden — observability goes through
// the metrics counters and the flight recorder. Wall clocks and map
// iteration stay legal — core's timing feeds metrics and backoff,
// not replayed decisions.
func checkRandOnly(pass *ana.Pass, region ast.Node) {
	ast.Inspect(region, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch pkg := obj.Pkg().Path(); pkg {
		case "math/rand", "math/rand/v2":
			pass.Reportf(id.Pos(), "%s.%s: randomness in internal/core must come from the seeded fault.Schedule injector so chaos runs replay from a seed", pkg, obj.Name())
		case "fmt", "log":
			if _, isFunc := obj.(*types.Func); isFunc && forbiddenPrintFuncs[pkg][obj.Name()] {
				pass.Reportf(id.Pos(), "%s.%s prints to a process-global stream; protocol observability in internal/core goes through metrics counters and the flight recorder (internal/obs)", pkg, obj.Name())
			}
		}
		return true
	})
}

func checkRegion(pass *ana.Pass, region ast.Node) {
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[n]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if _, isFunc := obj.(*types.Func); isFunc && forbiddenTimeFuncs[obj.Name()] {
					pass.Reportf(n.Pos(), "time.%s is nondeterministic and breaks replay equivalence; derive timestamps from the log or annotate metrics-only uses", obj.Name())
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(n.Pos(), "%s.%s is nondeterministic and breaks replay equivalence; derive randomness from transaction arguments", obj.Pkg().Path(), obj.Name())
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration order is nondeterministic and breaks replay equivalence; sort the keys first")
				}
			}
		}
		return true
	})
}
