// Command thedb-lint runs THEDB's one custom lint rule, syncerr
// (internal/analysis/syncerr; DESIGN.md §8.4), over the packages
// named on its command line (./... when none). It prints each finding
// on stdout and the number of //thedb:nolint:syncerr suppressions in
// force on stderr, and exits 1 on any finding, 2 when the packages do
// not load. `make lint` runs `go vet` beside it.
//
// Usage:
//
//	thedb-lint [packages...]
package main

import (
	"fmt"
	"os"

	"thedb/internal/analysis/syncerr"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, tally, err := syncerr.Check(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thedb-lint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	fmt.Fprintf(os.Stderr, "thedb-lint: suppressions in force: syncerr=%d\n", tally)
	if len(findings) > 0 {
		os.Exit(1)
	}
}
