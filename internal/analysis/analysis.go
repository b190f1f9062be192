// Package analysis registers THEDB's custom analyzers. Each one
// mechanically enforces a discipline that neither the compiler nor
// `go vet` can see: see the individual packages and DESIGN.md §9.
package analysis

import (
	"thedb/internal/analysis/ana"
	"thedb/internal/analysis/noalloc"
	"thedb/internal/analysis/nondet"
	"thedb/internal/analysis/syncerr"
)

// All returns every registered analyzer, in stable order.
func All() []*ana.Analyzer {
	return []*ana.Analyzer{
		noalloc.Analyzer,
		nondet.Analyzer,
		syncerr.Analyzer,
	}
}
